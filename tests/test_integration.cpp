// End-to-end integration: the full ROTA pipeline on open-system scenarios —
// workload generation → Φ → admission (Theorem 4) → plan-following execution
// under churn → model-checking the resulting path (Figure 1 semantics).
#include <gtest/gtest.h>

#include "rota/admission/baselines.hpp"
#include "rota/logic/model_checker.hpp"
#include "rota/logic/theorems.hpp"
#include "rota/sim/simulator.hpp"
#include "rota/workload/scenarios.hpp"

namespace rota {
namespace {

TEST(Integration, PaperStoryEndToEnd) {
  // The paper's running example, full circle: represent the actor, derive
  // its requirement via Φ, verify Theorem 3, admit it, execute it.
  PaperExample ex = make_paper_example();
  ConcurrentRequirement rho = make_concurrent_requirement(ex.phi, ex.computation);

  RotaAdmissionController ctl(ex.phi, ex.supply);
  AdmissionDecision d = ctl.request(ex.computation, 0);
  ASSERT_TRUE(d.accepted);

  Simulator sim(ex.supply, 0, ExecutionMode::kPlanFollowing);
  sim.schedule_admission(0, rho, d.plan);
  SimReport report = sim.run(ex.computation.deadline() + 1);
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_TRUE(report.outcomes[0].met_deadline());
}

TEST(Integration, ChurnyVolunteerNetworkStaysSound) {
  // Admission over a churning supply: the controller only ever commits to
  // supply it has been told about (base + already-joined churn), so every
  // admitted computation still finishes on time.
  VolunteerScenario v = make_volunteer_network(7, 600);
  WorkloadGenerator& gen = v.generator;

  RotaAdmissionController ctl(gen.phi(), v.base_supply);
  Simulator sim(v.base_supply, 0, ExecutionMode::kPlanFollowing);
  sim.schedule_churn(v.churn);

  // Interleave churn joins and arrivals in time order.
  auto arrivals = gen.make_arrivals(400);
  std::size_t next_join = 0;
  std::size_t admitted = 0;
  for (const Arrival& a : arrivals) {
    while (next_join < v.churn.size() && v.churn.events()[next_join].at <= a.at) {
      ResourceSet joined;
      joined.add(v.churn.events()[next_join].term);
      ctl.on_join(joined);
      ++next_join;
    }
    AdmissionDecision d = ctl.request(a.computation, a.at);
    if (!d.accepted) continue;
    ++admitted;
    sim.schedule_admission(a.at, make_concurrent_requirement(gen.phi(), a.computation),
                           d.plan);
  }

  ASSERT_GT(admitted, 0u) << "scenario admitted nothing; workload too harsh";
  SimReport report = sim.run(v.horizon);
  EXPECT_EQ(report.missed(), 0u);
}

TEST(Integration, ChurnEnablesAdmissionsBaseSupplyCannot) {
  // The point of reasoning about joins: with only the thin base supply some
  // computations are rejected that the churned supply accommodates. The base
  // here is overloaded on purpose (tight deadlines, frequent arrivals).
  WorkloadConfig cfg;
  cfg.seed = 21;
  cfg.num_locations = 3;
  cfg.cpu_rate = 1;  // starving base supply
  cfg.network_rate = 2;
  cfg.mean_interarrival = 10.0;
  cfg.laxity = 1.5;
  WorkloadGenerator gen(cfg, CostModel());
  const Tick horizon = 600;
  const ResourceSet base = gen.base_supply(TimeInterval(0, horizon));
  ChurnTrace churn = gen.make_churn(horizon, /*join_rate=*/0.4,
                                    /*mean_lifetime=*/80.0, /*max_rate=*/10);
  auto arrivals = gen.make_arrivals(400);

  RotaAdmissionController base_only(gen.phi(), base);
  RotaAdmissionController with_churn(gen.phi(), base);

  std::size_t next_join = 0;
  std::size_t base_accepted = 0, churn_accepted = 0;
  for (const Arrival& a : arrivals) {
    while (next_join < churn.size() && churn.events()[next_join].at <= a.at) {
      ResourceSet joined;
      joined.add(churn.events()[next_join].term);
      with_churn.on_join(joined);
      ++next_join;
    }
    if (base_only.request(a.computation, a.at).accepted) ++base_accepted;
    if (with_churn.request(a.computation, a.at).accepted) ++churn_accepted;
  }
  EXPECT_LT(base_accepted, arrivals.size()) << "base supply admitted everything";
  EXPECT_GT(churn_accepted, base_accepted);
}

TEST(Integration, ModelCheckerAgreesWithController) {
  // Build the committed path from the controller's admissions, then ask the
  // model checker (Figure 1) whether one more computation is satisfiable;
  // the verdict must match the controller's own.
  PaperExample ex = make_paper_example();
  Location l1 = ex.l1;

  ResourceSet supply;
  supply.add(4, TimeInterval(0, 12), LocatedType::cpu(l1));

  auto mk = [&](const std::string& name, Tick s, Tick d, std::int64_t w) {
    auto g = ActorComputationBuilder(name + ".a", l1).evaluate(w).build();
    return DistributedComputation(name, {g}, s, d);
  };

  RotaAdmissionController ctl(ex.phi, supply);
  auto d1 = ctl.request(mk("first", 0, 6, 2), 0);  // 16 cpu: ticks 0..3
  ASSERT_TRUE(d1.accepted);

  ConcurrentRequirement rho1 = make_concurrent_requirement(ex.phi, mk("first", 0, 6, 2));
  ComputationPath sigma = realize_plan(supply, rho1, *d1.plan, 0);

  ModelChecker mc(sigma);
  for (std::int64_t w : {1, 2, 3, 4}) {
    ConcurrentRequirement rho2 =
        make_concurrent_requirement(ex.phi, mk("probe", 0, 12, w));
    RotaAdmissionController probe = ctl;
    EXPECT_EQ(mc.satisfies(f_satisfy(rho2), 0), probe.request(rho2, 0).accepted)
        << "w=" << w;
  }
}

TEST(Integration, BaselineOverAdmissionCausesMissesRotaDoesNot) {
  // The headline experiment in miniature: identical workload, work-conserving
  // EDF execution of whatever each strategy admits. ROTA's admitted set runs
  // clean; always-admit takes everything and misses some.
  WorkloadConfig cfg;
  cfg.seed = 99;
  cfg.num_locations = 2;
  cfg.cpu_rate = 6;
  cfg.network_rate = 6;
  cfg.mean_interarrival = 4.0;  // heavy load
  cfg.laxity = 2.0;
  WorkloadGenerator gen(cfg, CostModel());
  const Tick horizon = 400;
  const ResourceSet supply = gen.base_supply(TimeInterval(0, horizon));
  auto arrivals = gen.make_arrivals(250);

  auto run_strategy = [&](AdmissionStrategy& strategy, ExecutionMode mode) {
    Simulator sim(supply, 0, mode, PriorityOrder::kEdf);
    for (const Arrival& a : arrivals) {
      AdmissionDecision d = strategy.request(a.computation, a.at);
      if (!d.accepted) continue;
      sim.schedule_admission(
          a.at, make_concurrent_requirement(gen.phi(), a.computation),
          std::move(d.plan));
    }
    return sim.run(horizon);
  };

  RotaAdmissionController rota(gen.phi(), supply);
  SimReport rota_report = run_strategy(rota, ExecutionMode::kPlanFollowing);
  EXPECT_EQ(rota_report.missed(), 0u);

  AlwaysAdmitStrategy always;
  SimReport always_report = run_strategy(always, ExecutionMode::kWorkConserving);
  EXPECT_GT(always_report.admitted(), rota_report.admitted());
  EXPECT_GT(always_report.missed(), 0u);
}

}  // namespace
}  // namespace rota
