#include "rota/admission/baselines.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace rota {
namespace {

class BaselinesTest : public ::testing::Test {
 protected:
  Location l1{"bl-l1"};
  Location l2{"bl-l2"};
  CostModel phi;
  LocatedType cpu1 = LocatedType::cpu(l1);
  LocatedType net12 = LocatedType::network(l1, l2);

  ResourceSet supply() {
    ResourceSet s;
    s.add(4, TimeInterval(0, 10), cpu1);
    s.add(4, TimeInterval(0, 10), net12);
    return s;
  }

  DistributedComputation job(const std::string& name, Tick s, Tick d,
                             std::int64_t weight = 1) {
    auto gamma = ActorComputationBuilder(name + ".a", l1).evaluate(weight).build();
    return DistributedComputation(name, {gamma}, s, d);
  }

  /// The ordering trap from §III: totals fit, temporal order does not.
  DistributedComputation chain_job(const std::string& name, Tick s, Tick d) {
    auto gamma = ActorComputationBuilder(name + ".a", l1).evaluate().send(l2).build();
    return DistributedComputation(name, {gamma}, s, d);
  }
};

TEST_F(BaselinesTest, Names) {
  EXPECT_EQ(RotaAdmissionController(phi, supply()).name(), "rota-asap");
  EXPECT_EQ(RotaAdmissionController(phi, supply(), PlanningPolicy::kAlap).name(),
            "rota-alap");
  EXPECT_EQ(NaiveTotalQuantityStrategy(phi, supply()).name(), "naive-total");
  EXPECT_EQ(OptimisticStrategy(phi, supply()).name(), "optimistic");
  EXPECT_EQ(AlwaysAdmitStrategy().name(), "always-admit");
}

TEST_F(BaselinesTest, AllAdmitAnEasyJob) {
  RotaAdmissionController rota(phi, supply());
  NaiveTotalQuantityStrategy naive(phi, supply());
  OptimisticStrategy optimistic(phi, supply());
  AlwaysAdmitStrategy always;
  auto easy = job("easy", 0, 10);
  EXPECT_TRUE(rota.request(easy, 0).accepted);
  EXPECT_TRUE(naive.request(easy, 0).accepted);
  EXPECT_TRUE(optimistic.request(easy, 0).accepted);
  EXPECT_TRUE(always.request(easy, 0).accepted);
}

TEST_F(BaselinesTest, NaiveIsBlindToRates) {
  // A job needing 16 cpu in 2 ticks: the rate cap (4/tick → 8) forbids it,
  // but the aggregate over (0, 10) looks fine to the naive check... so make
  // the window itself tight: quantity in (0, 2) is 8 < 16 — naive catches
  // that. The blindness shows with *rates within* a wide window:
  auto gamma = ActorComputationBuilder("burst.a", l1).evaluate(2).build();  // 16 cpu
  DistributedComputation burst("burst", {gamma}, 0, 3);  // 12 available
  NaiveTotalQuantityStrategy naive(phi, supply());
  EXPECT_FALSE(naive.request(burst, 0).accepted);  // quantity check still works

  // 12 cpu in 3 ticks fits by quantity (12 == 12) and by rate (4×3) — fine
  // for both. Now two such jobs: naive charges quantities and rejects the
  // second; where naive truly over-admits is *disjoint-looking* windows:
  DistributedComputation a = job("a", 0, 2);  // needs 8 = exactly (0,2) supply
  DistributedComputation b = job("b", 1, 3);  // needs 8, overlaps tick 1
  NaiveTotalQuantityStrategy naive2(phi, supply());
  ASSERT_TRUE(naive2.request(a, 0).accepted);
  // b's pool (1,3) holds 8 and a's full 8 is charged → 16 > 8: rejected.
  EXPECT_FALSE(naive2.request(b, 0).accepted);
}

TEST_F(BaselinesTest, NaiveOverAdmitsOnTemporalOrder) {
  // The §III trap: supply has network early and cpu late; the evaluate→send
  // chain is impossible (cpu must come first), but totals cover it.
  ResourceSet misordered;
  misordered.add(8, TimeInterval(6, 10), cpu1);   // late cpu
  misordered.add(4, TimeInterval(0, 4), net12);   // early network
  auto trap = chain_job("trap", 0, 10);

  RotaAdmissionController rota(phi, misordered);
  EXPECT_FALSE(rota.request(trap, 0).accepted);

  NaiveTotalQuantityStrategy naive(phi, misordered);
  EXPECT_TRUE(naive.request(trap, 0).accepted);  // unsound admission

  OptimisticStrategy optimistic(phi, misordered);
  EXPECT_TRUE(optimistic.request(trap, 0).accepted);
}

TEST_F(BaselinesTest, OptimisticIgnoresOtherCommitments) {
  OptimisticStrategy optimistic(phi, supply());
  // Five jobs exhaust (0,10)'s 40 cpu; optimistic admits all ten.
  int accepted = 0;
  for (int i = 0; i < 10; ++i) {
    if (optimistic.request(job("j" + std::to_string(i), 0, 10), 0).accepted) {
      ++accepted;
    }
  }
  EXPECT_EQ(accepted, 10);

  RotaAdmissionController rota(phi, supply());
  accepted = 0;
  for (int i = 0; i < 10; ++i) {
    if (rota.request(job("j" + std::to_string(i), 0, 10), 0).accepted) ++accepted;
  }
  EXPECT_EQ(accepted, 5);
}

TEST_F(BaselinesTest, AlwaysAdmitOnlyChecksDeadline) {
  AlwaysAdmitStrategy always;
  EXPECT_TRUE(always.request(job("a", 0, 5, 100), 0).accepted);
  EXPECT_FALSE(always.request(job("b", 0, 5), 6).accepted);
}

TEST_F(BaselinesTest, JoinExpandsBaselinePools) {
  ResourceSet thin;
  thin.add(1, TimeInterval(0, 4), cpu1);
  NaiveTotalQuantityStrategy naive(phi, thin);
  EXPECT_FALSE(naive.request(job("j", 0, 4), 0).accepted);  // 4 < 8
  ResourceSet extra;
  extra.add(2, TimeInterval(0, 4), cpu1);
  naive.on_join(extra);
  EXPECT_TRUE(naive.request(job("j", 0, 4), 0).accepted);  // 12 >= 8

  OptimisticStrategy optimistic(phi, thin);
  EXPECT_FALSE(optimistic.request(job("j", 0, 4), 0).accepted);
  optimistic.on_join(extra);
  EXPECT_TRUE(optimistic.request(job("j", 0, 4), 0).accepted);
}

TEST_F(BaselinesTest, StrategiesRejectExpiredDeadlines) {
  NaiveTotalQuantityStrategy naive(phi, supply());
  OptimisticStrategy optimistic(phi, supply());
  EXPECT_FALSE(naive.request(job("late", 0, 3), 5).accepted);
  EXPECT_FALSE(optimistic.request(job("late", 0, 3), 5).accepted);
}

TEST_F(BaselinesTest, PolymorphicUseThroughInterface) {
  std::vector<std::unique_ptr<AdmissionStrategy>> strategies;
  strategies.push_back(std::make_unique<RotaAdmissionController>(phi, supply()));
  strategies.push_back(std::make_unique<NaiveTotalQuantityStrategy>(phi, supply()));
  strategies.push_back(std::make_unique<OptimisticStrategy>(phi, supply()));
  strategies.push_back(std::make_unique<AlwaysAdmitStrategy>());
  for (auto& s : strategies) {
    EXPECT_TRUE(s->request(job("poly", 0, 10), 0).accepted) << s->name();
  }
}

}  // namespace
}  // namespace rota
