// Randomized property tests tying the layers together:
//   P1  planner soundness — any plan replayed through the transition rules
//       drains the requirement by its deadline;
//   P2  admission soundness — everything a RotaAdmissionController admits
//       meets its deadline when the admitted set executes plan-following on
//       the real supply, at any load;
//   P3  union/relative-complement inverse on resource sets;
//   P4  T2 (greedy cut points) agrees with the transition-rule schedule
//       search for single actors (completeness at this scale);
//   P5  admitted-set usage always fits raw supply (no over-booking, ever).
#include <gtest/gtest.h>

#include "rota/admission/controller.hpp"
#include "rota/logic/theorems.hpp"
#include "rota/sim/simulator.hpp"
#include "rota/util/rng.hpp"
#include "rota/workload/generator.hpp"

namespace rota {
namespace {

WorkloadConfig property_config(std::uint64_t seed) {
  WorkloadConfig c;
  c.seed = seed;
  c.num_locations = 3;
  c.cpu_rate = 8;
  c.network_rate = 8;
  c.actors_min = 1;
  c.actors_max = 2;
  c.actions_min = 2;
  c.actions_max = 6;
  c.laxity = 2.5;
  c.mean_interarrival = 8.0;
  return c;
}

class PropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PropertyTest, P1_PlansSurviveTransitionRuleReplay) {
  WorkloadGenerator gen(property_config(GetParam()), CostModel());
  const ResourceSet supply = gen.base_supply(TimeInterval(0, 400));

  for (int i = 0; i < 10; ++i) {
    DistributedComputation lambda = gen.make_computation(static_cast<Tick>(i * 7));
    ConcurrentRequirement rho = make_concurrent_requirement(gen.phi(), lambda);
    for (auto policy :
         {PlanningPolicy::kAsap, PlanningPolicy::kAlap, PlanningPolicy::kUniform}) {
      auto plan = plan_concurrent(supply, rho, policy);
      if (!plan) continue;
      // realize_plan throws if any transition-rule side condition breaks.
      ComputationPath path =
          realize_plan(supply, rho, *plan, lambda.earliest_start());
      EXPECT_TRUE(path.back().all_finished()) << policy_name(policy);
      EXPECT_FALSE(path.back().any_missed()) << policy_name(policy);
      EXPECT_LE(plan->finish, lambda.deadline()) << policy_name(policy);
    }
  }
}

TEST_P(PropertyTest, P2_AdmittedAlwaysMeetsDeadline) {
  WorkloadGenerator gen(property_config(GetParam()), CostModel());
  const Tick horizon = 300;
  const ResourceSet supply = gen.base_supply(TimeInterval(0, horizon));
  RotaAdmissionController rota(gen.phi(), supply);

  Simulator sim(supply, 0, ExecutionMode::kPlanFollowing);
  std::size_t admitted = 0;
  for (const Arrival& a : gen.make_arrivals(horizon / 2)) {
    AdmissionDecision d = rota.request(a.computation, a.at);
    if (!d.accepted) continue;
    ++admitted;
    sim.schedule_admission(a.at, make_concurrent_requirement(gen.phi(), a.computation),
                           d.plan);
  }
  SimReport report = sim.run(horizon);
  EXPECT_EQ(report.outcomes.size(), admitted);
  EXPECT_EQ(report.missed(), 0u) << "a ROTA-admitted computation missed its deadline";
}

TEST_P(PropertyTest, P3_UnionComplementInverse) {
  util::Rng rng(GetParam() * 977 + 5);
  Location l1("pr-l1"), l2("pr-l2");
  const std::vector<LocatedType> types = {
      LocatedType::cpu(l1), LocatedType::cpu(l2), LocatedType::network(l1, l2)};

  for (int round = 0; round < 20; ++round) {
    auto random_set = [&]() {
      ResourceSet s;
      const int n = static_cast<int>(rng.uniform(1, 4));
      for (int i = 0; i < n; ++i) {
        const Tick start = rng.uniform(0, 20);
        const Tick end = rng.uniform(start + 1, 25);
        s.add(rng.uniform(1, 9), TimeInterval(start, end), types[rng.index(3)]);
      }
      return s;
    };
    const ResourceSet a = random_set();
    const ResourceSet b = random_set();
    // (a ∪ b) \ b == a whenever defined — and it is always defined here.
    auto back = a.unioned(b).relative_complement(b);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, a);
    // Domination: a ∪ b dominates both.
    EXPECT_TRUE(a.unioned(b).dominates(a));
    EXPECT_TRUE(a.unioned(b).dominates(b));
  }
}

TEST_P(PropertyTest, P4_GreedyCutPointsMatchScheduleSearch) {
  util::Rng rng(GetParam() * 131 + 17);
  WorkloadGenerator gen(property_config(GetParam() + 1000), CostModel());

  for (int round = 0; round < 8; ++round) {
    // One random single-actor computation over randomized patchy supply.
    WorkloadConfig single = property_config(GetParam() * 31 + round);
    single.actors_min = single.actors_max = 1;
    WorkloadGenerator sgen(single, CostModel());
    DistributedComputation lambda = sgen.make_computation(0);

    ResourceSet supply;
    for (const Location& l : sgen.locations()) {
      // Patchy cpu: two random windows.
      for (int w = 0; w < 2; ++w) {
        const Tick start = rng.uniform(0, 12);
        const Tick end = rng.uniform(start + 1, 24);
        supply.add(rng.uniform(1, 10), TimeInterval(start, end), LocatedType::cpu(l));
      }
      for (const Location& m : sgen.locations()) {
        if (l == m) continue;
        supply.add(rng.uniform(1, 10), TimeInterval(0, 24),
                   LocatedType::network(l, m));
      }
    }

    ConcurrentRequirement rho = make_concurrent_requirement(sgen.phi(), lambda);
    ASSERT_EQ(rho.actors().size(), 1u);
    const bool greedy = theorem2_cut_points(supply, rho.actors()[0]).has_value();

    SystemState s0(supply, 0);
    s0.accommodate(rho);
    const bool searched = search_feasible(s0, lambda.deadline()).has_value();
    EXPECT_EQ(greedy, searched) << "round " << round;
  }
}

TEST_P(PropertyTest, P5_AdmittedUsageFitsRawSupply) {
  WorkloadGenerator gen(property_config(GetParam() + 77), CostModel());
  const ResourceSet supply = gen.base_supply(TimeInterval(0, 200));
  RotaAdmissionController ctl(gen.phi(), supply);

  ResourceSet combined;
  for (const Arrival& a : gen.make_arrivals(150)) {
    AdmissionDecision d = ctl.request(a.computation, a.at);
    if (d.accepted) combined = combined.unioned(d.plan->usage_as_resources());
  }
  EXPECT_TRUE(supply.relative_complement(combined).has_value())
      << "admitted plans collectively over-book the supply";
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest, ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace rota
