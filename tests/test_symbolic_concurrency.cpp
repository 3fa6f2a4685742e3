// Concurrency contract of the feasibility engine: decide_feasibility must be
// safely callable from concurrent pool lanes and give every lane the same
// verdict. Runs under -DROTA_SANITIZE=thread via the tsan label.
#include <gtest/gtest.h>

#include <vector>

#include "rota/computation/requirement.hpp"
#include "rota/logic/symbolic/feasibility.hpp"
#include "rota/runtime/thread_pool.hpp"

namespace rota {
namespace {

class SymbolicConcurrencyTest : public ::testing::Test {
 protected:
  Location l1{"syc-l1"};
  LocatedType cpu1 = LocatedType::cpu(l1);

  ComplexRequirement actor(const std::string& name, Quantity q,
                           const TimeInterval& w, Rate cap) {
    Phase p;
    p.demand.add(cpu1, q);
    p.first_action = 0;
    p.action_count = 1;
    return ComplexRequirement(name, {p}, w, cap);
  }

  /// Hog-first drip/hog instance (see test_symbolic.cpp): every greedy order
  /// fails, so only the engine decides it.
  SystemState drip_hog(std::size_t n) {
    const TimeInterval w(0, 12);
    std::vector<ComplexRequirement> actors;
    actors.push_back(actor("hog", 12, w, 0));
    for (std::size_t i = 0; i + 1 < n; ++i) {
      actors.push_back(actor("drip" + std::to_string(i), 12, w, 1));
    }
    ResourceSet supply;
    supply.add(static_cast<Rate>(n), TimeInterval(0, 12), cpu1);
    SystemState s(supply, 0);
    s.accommodate(ConcurrentRequirement("dh", std::move(actors), w));
    return s;
  }
};

TEST_F(SymbolicConcurrencyTest, SymbolicEngineIsSafeAcrossLanes) {
  const SystemState start = drip_hog(6);
  ThreadPool pool(4);
  std::vector<FeasibilityVerdict> verdicts(16, FeasibilityVerdict::kUnknown);
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    pool.submit([&, i] { verdicts[i] = decide_feasibility(start, 12).verdict; });
  }
  pool.drain();
  for (const FeasibilityVerdict v : verdicts) {
    EXPECT_EQ(v, FeasibilityVerdict::kFeasible);
  }
}

}  // namespace
}  // namespace rota
