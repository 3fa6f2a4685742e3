// Scale smoke tests: not micro-correctness (the rest of the suite does
// that) but "does the system stay sane and finish promptly at two orders of
// magnitude above the other tests' sizes". Each test has a generous but
// real time budget via the harness default; sizes are tuned to run in well
// under a second each in release builds.
#include <gtest/gtest.h>

#include "rota/admission/controller.hpp"
#include "rota/logic/model_checker.hpp"
#include "rota/sim/simulator.hpp"
#include "rota/workload/generator.hpp"

namespace rota {
namespace {

TEST(Stress, ThousandAdmissionRequests) {
  WorkloadConfig config;
  config.seed = 31337;
  config.num_locations = 6;
  config.cpu_rate = 12;
  config.network_rate = 12;
  config.mean_interarrival = 3.0;
  config.laxity = 2.0;
  const Tick horizon = 4000;

  WorkloadGenerator gen(config, CostModel());
  RotaAdmissionController rota(gen.phi(),
                               gen.base_supply(TimeInterval(0, horizon)));

  auto arrivals = gen.make_arrivals(horizon * 3 / 4);
  ASSERT_GT(arrivals.size(), 700u);
  std::size_t accepted = 0;
  for (const Arrival& a : arrivals) {
    if (rota.request(a.computation, a.at).accepted) ++accepted;
  }
  // Sanity: the controller neither collapses to reject-all nor over-admits.
  EXPECT_GT(accepted, arrivals.size() / 4);
  EXPECT_LE(accepted, arrivals.size());
}

TEST(Stress, LongSimulationWithChurnStaysSound) {
  WorkloadConfig config;
  config.seed = 31338;
  config.num_locations = 5;
  config.cpu_rate = 2;
  config.network_rate = 4;
  config.mean_interarrival = 6.0;
  config.laxity = 2.2;
  const Tick horizon = 5000;

  WorkloadGenerator gen(config, CostModel());
  const ResourceSet base = gen.base_supply(TimeInterval(0, horizon));
  const ChurnTrace churn = gen.make_churn(horizon, 0.3, 60.0, 8);

  RotaAdmissionController ctl(gen.phi(), base);
  Simulator sim(base, 0, ExecutionMode::kPlanFollowing);
  sim.schedule_churn(churn);

  std::size_t next_join = 0;
  std::size_t admitted = 0;
  for (const Arrival& a : gen.make_arrivals(horizon * 2 / 3)) {
    while (next_join < churn.size() && churn.events()[next_join].at <= a.at) {
      ResourceSet joined;
      joined.add(churn.events()[next_join].term);
      ctl.on_join(joined);
      ++next_join;
    }
    AdmissionDecision d = ctl.request(a.computation, a.at);
    if (!d.accepted) continue;
    ++admitted;
    sim.schedule_admission(a.at,
                           make_concurrent_requirement(gen.phi(), a.computation),
                           std::move(d.plan));
  }
  ASSERT_GT(admitted, 100u);
  SimReport report = sim.run(horizon);
  EXPECT_EQ(report.missed(), 0u);
}

TEST(Stress, HeavilyFragmentedResidualStaysCanonical) {
  // Thousands of slivers of supply; the residual's term count must stay
  // bounded by the structure (no duplicate/zero segments accumulate).
  Location l("stress-frag");
  ResourceSet supply;
  for (int i = 0; i < 3000; ++i) {
    supply.add(1 + i % 3, TimeInterval(i * 2, i * 2 + 3), LocatedType::cpu(l));
  }
  const std::size_t before = supply.term_count();
  EXPECT_LE(before, 6001u);
  for (const auto& term : supply.terms()) {
    EXPECT_GT(term.rate(), 0);
    EXPECT_FALSE(term.interval().empty());
  }
  // Round-trip through complement: (supply \ half) ∪ half == supply.
  ResourceSet half;
  for (int i = 0; i < 3000; i += 2) {
    half.add(1, TimeInterval(i * 2, i * 2 + 2), LocatedType::cpu(l));
  }
  auto rest = supply.relative_complement(half);
  ASSERT_TRUE(rest.has_value());
  EXPECT_EQ(rest->unioned(half), supply);
}

TEST(Stress, DeepPathModelChecking) {
  Location l("stress-path");
  ResourceSet supply;
  supply.add(4, TimeInterval(0, 3000), LocatedType::cpu(l));
  ComputationPath path(SystemState(supply, 0));
  for (int i = 0; i < 2000; ++i) path.apply(TickStep{});

  ModelChecker mc(path);
  DemandSet d;
  d.add(LocatedType::cpu(l), 4);
  FormulaPtr psi =
      f_always(f_satisfy(SimpleRequirement(d, TimeInterval(0, 3000))));
  EXPECT_TRUE(mc.satisfies(psi, 0));
}

TEST(Stress, WideConcurrentComputation) {
  // One computation with 200 actors across 8 nodes plans in one piece.
  WorkloadConfig config;
  config.seed = 31339;
  config.num_locations = 8;
  config.cpu_rate = 50;
  config.network_rate = 50;
  config.actors_min = config.actors_max = 200;
  config.actions_min = 2;
  config.actions_max = 4;
  config.laxity = 4.0;
  WorkloadGenerator gen(config, CostModel());
  DistributedComputation big = gen.make_computation(0);
  ASSERT_EQ(big.actors().size(), 200u);
  auto plan = plan_concurrent(gen.base_supply(TimeInterval(0, 5000)),
                              make_concurrent_requirement(gen.phi(), big),
                              PlanningPolicy::kAsap);
  ASSERT_TRUE(plan.has_value());
  EXPECT_LE(plan->finish, big.deadline());
}

}  // namespace
}  // namespace rota
