// The symbolic cut-point feasibility engine: exactness on instances the
// greedy planner misjudges, decisions beyond what any static priority order
// (the fuzz harness's sweep) can schedule, witness validity, verdict
// semantics (kUnknown means not shown feasible), and the wiring into
// search_feasible, the model checker, and the planning kernel's multi-actor
// admission probe.
#include "rota/logic/symbolic/feasibility.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "rota/admission/controller.hpp"
#include "rota/computation/requirement.hpp"
#include "rota/fuzz/exhaustive.hpp"
#include "rota/logic/explorer.hpp"
#include "rota/logic/model_checker.hpp"
#include "rota/logic/planner.hpp"
#include "rota/logic/symbolic/flow.hpp"

namespace rota {
namespace {

class SymbolicTest : public ::testing::Test {
 protected:
  Location l1{"sy-l1"};
  LocatedType cpu1 = LocatedType::cpu(l1);

  ResourceSet supply(Rate rate, Tick until) {
    ResourceSet s;
    s.add(rate, TimeInterval(0, until), cpu1);
    return s;
  }

  Phase cpu_phase(Quantity q) {
    Phase p;
    p.demand.add(cpu1, q);
    p.first_action = 0;
    p.action_count = 1;
    return p;
  }

  ComplexRequirement actor(const std::string& name, Quantity q,
                           const TimeInterval& window, Rate cap = 0) {
    return ComplexRequirement(name, {cpu_phase(q)}, window, cap);
  }

  /// supply 2/tick over [0, 3); A wants 3 uncapped, B wants 3 at cap 1.
  /// Feasible exactly one way (B drips 1 every tick, A absorbs the rest), but
  /// the sequential planner plans A first, lets it gulp 2+1, and starves B —
  /// the canonical greedy-rejection the symbolic engine must overturn.
  ConcurrentRequirement rescue_rho() {
    const TimeInterval w(0, 3);
    return ConcurrentRequirement(
        "rescue", {actor("rescue.a", 3, w, 0), actor("rescue.b", 3, w, 1)}, w);
  }

  SystemState rescue_state() {
    SystemState s(supply(2, 3), 0);
    s.accommodate(rescue_rho());
    return s;
  }

  /// One uncapped hog (12 cpu) ranked first, then n-1 drips (12 cpu at cap 1
  /// over [0, 12) — zero slack); supply n/tick. Feasible only when every
  /// drip outranks the hog, so every greedy order (all tie on deadline and
  /// laxity, falling back to index order) fails, and the static-order sweep
  /// refuses to brute-force above fuzz::kMaxSweepActors.
  std::vector<ComplexRequirement> drip_hog_actors(std::size_t n) {
    const TimeInterval w(0, 12);
    std::vector<ComplexRequirement> actors;
    actors.push_back(actor("hog", 12, w, 0));
    for (std::size_t i = 0; i + 1 < n; ++i) {
      actors.push_back(actor("drip" + std::to_string(i), 12, w, 1));
    }
    return actors;
  }

  SystemState drip_hog_state(std::size_t n) {
    SystemState s(supply(static_cast<Rate>(n), 12), 0);
    s.accommodate(ConcurrentRequirement("dh", drip_hog_actors(n), TimeInterval(0, 12)));
    return s;
  }
};

TEST_F(SymbolicTest, SingleActorAgreesWithPlanner) {
  const TimeInterval w(0, 6);
  for (const Rate cap : {Rate{0}, Rate{1}, Rate{2}}) {
    for (const Quantity q : {Quantity{3}, Quantity{6}, Quantity{9}}) {
      const ComplexRequirement a = actor("solo", q, w, cap);
      const ResourceSet avail = supply(2, 6);
      const bool planned = plan_actor(avail, a, PlanningPolicy::kAsap).has_value();
      SystemState s(avail, 0);
      s.accommodate(ConcurrentRequirement("solo", {a}, w));
      const FeasibilityResult r = decide_feasibility(s, 6);
      ASSERT_NE(r.verdict, FeasibilityVerdict::kUnknown);
      EXPECT_EQ(r.feasible(), planned)
          << "cap " << cap << ", q " << q << ": planner and symbolic disagree";
    }
  }
}

TEST_F(SymbolicTest, OverturnsOrderSensitiveGreedyRejection) {
  // The greedy planner rejects the [A, B] order…
  EXPECT_FALSE(plan_concurrent(supply(2, 3), rescue_rho(), PlanningPolicy::kAsap));
  // …but the instance is feasible, and the witness replays.
  const SystemState s = rescue_state();
  const FeasibilityResult r = decide_feasibility(s, 3);
  ASSERT_EQ(r.verdict, FeasibilityVerdict::kFeasible);
  const auto path = realize_feasibility(s, r);
  ASSERT_TRUE(path.has_value());
  EXPECT_TRUE(path->back().all_finished());
}

TEST_F(SymbolicTest, WitnessScheduleMeetsDemandsAndBoundaries) {
  const SystemState s = rescue_state();
  const FeasibilityResult r = decide_feasibility(s, 3);
  ASSERT_TRUE(r.feasible());
  // Single-phase actors: boundaries are [release, deadline], no free cuts.
  ASSERT_EQ(r.boundaries.size(), 2u);
  for (const auto& cuts : r.boundaries) {
    ASSERT_EQ(cuts.size(), 2u);
    EXPECT_EQ(cuts.front(), 0);
    EXPECT_EQ(cuts.back(), 3);
  }
  EXPECT_EQ(r.stats.free_cuts, 0u);
  // Per-commitment totals match the demands; B never exceeds its cap.
  Quantity got_a = 0, got_b = 0;
  for (std::size_t t = 0; t < r.schedule.size(); ++t) {
    for (const ConsumptionLabel& label : r.schedule[t]) {
      EXPECT_EQ(label.type, cpu1);
      if (label.commitment == 0) got_a += label.rate;
      if (label.commitment == 1) {
        got_b += label.rate;
        EXPECT_LE(label.rate, 1);
      }
    }
  }
  EXPECT_EQ(got_a, 3);
  EXPECT_EQ(got_b, 3);
}

TEST_F(SymbolicTest, AgreesOnInfeasibleInstances) {
  // Total demand 7 > total supply 6: both engines must say no.
  const TimeInterval w(0, 3);
  SystemState s(supply(2, 3), 0);
  s.accommodate(ConcurrentRequirement(
      "over", {actor("over.a", 4, w), actor("over.b", 3, w, 1)}, w));
  const FeasibilityResult r = decide_feasibility(s, 3);
  EXPECT_EQ(r.verdict, FeasibilityVerdict::kInfeasible);
  EXPECT_FALSE(search_feasible(s, 3).has_value());
}

TEST_F(SymbolicTest, DecidesAboveThePermutationCeiling) {
  const SystemState s = drip_hog_state(8);  // 8 commitments > the sweep's 6

  EXPECT_FALSE(fuzz::static_order_sweep(supply(8, 12), drip_hog_actors(8), 12))
      << "the sweep should refuse 8 commitments, not brute-force 8!";

  const FeasibilityResult r = decide_feasibility(s, 12);
  ASSERT_EQ(r.verdict, FeasibilityVerdict::kFeasible);
  // Single-phase actors: the whole decision is one polynomial flow check.
  EXPECT_EQ(r.stats.nodes, 0u);

  // The kAuto ladder turns that verdict into a concrete path.
  const auto path = search_feasible(s, 12);
  ASSERT_TRUE(path.has_value());
  EXPECT_TRUE(path->back().all_finished());
}

// Fuzz-minimized (feasibility family): a rate cap can make a feasible
// single-phase instance need a priority *switch* between ticks — give the
// capped actor its cap first, then yield the remainder — which no static
// permutation expresses. Supply 5/tick; A wants 8 at cap 3 over [0, 3); B
// wants 5 uncapped over [0, 2). The only schedules interleave A=3,B=2 then
// B=3,A=2 then A=3, but every static order starves one of them: B-first lets
// B gulp 5 and leaves A at most 6, A-first drips B 2+2 < 5. The sweep must
// find no order, the symbolic engine must decide feasible with a replayable
// witness, and the search_feasible ladder must turn it into a path.
TEST_F(SymbolicTest, CappedSinglePhaseBeyondStaticOrdersIsDecidedFeasible) {
  const TimeInterval w(0, 3);
  const std::vector<ComplexRequirement> actors{
      actor("cap.a", 8, w, 3), actor("cap.b", 5, TimeInterval(0, 2))};
  SystemState s(supply(5, 3), 0);
  s.accommodate(ConcurrentRequirement("cap", actors, w));

  const auto sweep = fuzz::static_order_sweep(supply(5, 3), actors, 3);
  ASSERT_TRUE(sweep.has_value());
  EXPECT_EQ(sweep->permutations, 2u);
  EXPECT_FALSE(sweep->path.has_value())
      << "a static order that schedules this instance would be news";

  const FeasibilityResult r = decide_feasibility(s, 3);
  ASSERT_EQ(r.verdict, FeasibilityVerdict::kFeasible);
  EXPECT_TRUE(realize_feasibility(s, r).has_value());

  const auto path = search_feasible(s, 3);
  ASSERT_TRUE(path.has_value());
  EXPECT_TRUE(path->back().all_finished());
}

TEST_F(SymbolicTest, StarvedBudgetReportsUnknownAndLadderRejectsUnknown) {
  // Two-phase variant of the rescue instance: every greedy order still lets
  // A starve B, and A's second phase adds a free cut, so the DFS must expand
  // at least one node — which a zero budget forbids.
  const TimeInterval w(0, 3);
  ComplexRequirement two_phase("tp.a", {cpu_phase(2), cpu_phase(1)}, w, 0);
  SystemState s(supply(2, 3), 0);
  s.accommodate(
      ConcurrentRequirement("tp", {two_phase, actor("tp.b", 3, w, 1)}, w));

  FeasibilityOptions starved;
  starved.node_budget = 0;
  EXPECT_EQ(decide_feasibility(s, 3, starved).verdict,
            FeasibilityVerdict::kUnknown);
  EXPECT_EQ(decide_feasibility(s, 3).verdict, FeasibilityVerdict::kFeasible);
  EXPECT_TRUE(search_feasible(s, 3).has_value());

  // The rescue instance stretched past the engine's default tick ceiling:
  // still feasible (B drips 1 every tick, A absorbs the rest), still missed
  // by every greedy order, but the engine answers kUnknown — which the
  // ladder reports as not shown feasible.
  const TimeInterval wide(0, 600);
  SystemState long_run(supply(2, 600), 0);
  long_run.accommodate(ConcurrentRequirement(
      "wide", {actor("wide.a", 600, wide, 0), actor("wide.b", 600, wide, 1)},
      wide));
  EXPECT_EQ(decide_feasibility(long_run, 600).verdict,
            FeasibilityVerdict::kUnknown);
  EXPECT_FALSE(search_feasible(long_run, 600).has_value());
}

TEST_F(SymbolicTest, OversizedTickSpanReportsUnknown) {
  const TimeInterval w(0, 600);
  SystemState s(supply(1, 600), 0);
  s.accommodate(ConcurrentRequirement("long", {actor("long.a", 4, w)}, w));
  FeasibilityOptions narrow;
  narrow.max_ticks = 16;
  EXPECT_EQ(decide_feasibility(s, 600, narrow).verdict,
            FeasibilityVerdict::kUnknown);
}

TEST_F(SymbolicTest, ModelCheckerOverturnsPlannerRejection) {
  const ResourceSet avail = supply(2, 3);
  ComputationPath path(SystemState(avail, 0));

  // The sequential planner alone rejects the rescue instance…
  EXPECT_FALSE(plan_concurrent(avail, rescue_rho(), PlanningPolicy::kAsap));
  // …and the checker's exact ladder accepts it.
  const ModelChecker checker(path);
  EXPECT_TRUE(checker.satisfies(f_satisfy(rescue_rho()), 0));
}

TEST_F(SymbolicTest, StaticOrderSweepCountsOrdersUpToItsCeiling) {
  // The winning order puts every drip before the hog; the sweep stops there
  // (lexicographic winner index + 1) and refuses past its ceiling.
  const std::size_t expected[] = {2, 4, 10, 34, 154};
  for (std::size_t n = 2; n <= fuzz::kMaxSweepActors; ++n) {
    const auto sweep = fuzz::static_order_sweep(
        supply(static_cast<Rate>(n), 12), drip_hog_actors(n), 12);
    ASSERT_TRUE(sweep.has_value()) << "n=" << n;
    EXPECT_TRUE(sweep->path.has_value()) << "n=" << n;
    EXPECT_EQ(sweep->permutations, expected[n - 2]) << "n=" << n;
  }
  EXPECT_FALSE(fuzz::static_order_sweep(supply(7, 12), drip_hog_actors(7), 12));
}

TEST_F(SymbolicTest, KernelAdmissionProbeRescuesContendedRequests) {
  // The admission surface shares the verdict: a controller must accept the
  // rescue instance even though the sequential planner rejects its order.
  RotaAdmissionController ctl(CostModel{}, supply(2, 3));
  const AdmissionDecision d = ctl.request(rescue_rho(), 0);
  EXPECT_TRUE(d.accepted) << d.reason;
  ASSERT_TRUE(d.plan.has_value());
  EXPECT_LE(d.plan->finish, 3);

  // The kAlap ablation deliberately keeps its own (incomplete) behavior.
  RotaAdmissionController alap(CostModel{}, supply(2, 3),
                               PlanningPolicy::kAlap);
  EXPECT_FALSE(alap.request(rescue_rho(), 0).accepted);
}

TEST_F(SymbolicTest, SymbolicPlanCoversDemandWithinWindows) {
  const auto plan = symbolic_concurrent_plan(supply(2, 3), rescue_rho(), 0);
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->actors.size(), 2u);
  EXPECT_LE(plan->finish, 3);
  for (std::size_t i = 0; i < plan->actors.size(); ++i) {
    const ActorPlan& ap = plan->actors[i];
    Quantity total = 0;
    for (const auto& [type, usage] : ap.usage) {
      EXPECT_EQ(type, cpu1);
      total += usage.integral();
    }
    EXPECT_EQ(total, 3) << "actor " << ap.actor;
  }
}

// One e15 rescue (seed 2026, request 9959, shifted to start at tick 0): three
// actors sharing one location's cpu and uplinks, with 3, 5 and 5 phases over
// a 50-tick window. The greedy planner rejects it and the instance is
// feasible. A cut search that checks the flow relaxation only after an
// actor's last boundary took 13,235 nodes and 10,782 flow checks here;
// checking after every boundary decides it in 37 nodes and 38 checks, and
// finds the same first witness (the boundaries pinned below).
class E15RescueTest : public ::testing::Test {
 protected:
  LocatedType cpu = LocatedType::cpu(Location("e15-l3"));
  LocatedType link(const char* to) {
    return LocatedType::network(Location("e15-l3"), Location(to));
  }

  ResourceSet supply() {
    using Pieces = std::vector<std::tuple<Rate, Tick, Tick>>;  // rate@[from, to)
    ResourceSet s;
    auto add = [&](const LocatedType& type, const Pieces& pieces) {
      for (const auto& [rate, from, to] : pieces) {
        s.add(rate, TimeInterval(from, to), type);
      }
    };
    add(cpu, {{6, 19, 20}, {7, 20, 23}, {5, 30, 31}, {8, 31, 33}, {7, 33, 34},
              {5, 34, 36}, {6, 36, 37}, {4, 37, 38}, {6, 38, 42}, {10, 42, 44},
              {11, 44, 45}, {12, 45, 46}, {11, 46, 47}, {12, 47, 48},
              {11, 48, 49}, {12, 49, 50}});
    add(link("e15-l2"), {{2, 0, 20}, {3, 20, 22}, {2, 22, 35}, {3, 35, 37},
                         {2, 37, 50}});
    add(link("e15-l5"), {{2, 0, 9}, {3, 11, 16}, {2, 16, 21}, {2, 23, 31},
                         {3, 31, 42}, {2, 42, 50}});
    add(link("e15-l7"), {{2, 0, 12}, {2, 15, 50}});
    add(link("e15-l8"), {{2, 0, 39}, {3, 39, 46}, {2, 46, 50}});
    add(link("e15-l4"), {{2, 0, 20}, {3, 20, 31}, {2, 31, 35}, {3, 35, 38},
                         {4, 38, 44}, {3, 44, 45}, {2, 45, 50}});
    return s;
  }

  ComplexRequirement actor(const std::string& name,
                           const std::vector<std::pair<LocatedType, Quantity>>& phases) {
    std::vector<Phase> ps;
    for (const auto& [type, q] : phases) {
      Phase p;
      p.demand.add(type, q);
      p.first_action = ps.size();
      p.action_count = 1;
      ps.push_back(p);
    }
    return ComplexRequirement(name, ps, window);
  }

  ConcurrentRequirement rho() {
    return ConcurrentRequirement(
        "job9959",
        {actor("a0", {{cpu, 27}, {link("e15-l2"), 4}, {cpu, 24}}),
         actor("a1", {{cpu, 1}, {link("e15-l5"), 4}, {cpu, 24},
                      {link("e15-l7"), 4}, {link("e15-l8"), 4}}),
         actor("a2", {{cpu, 24}, {link("e15-l8"), 4}, {cpu, 24},
                      {link("e15-l4"), 4}, {cpu, 42}})},
        window);
  }

  const TimeInterval window{0, 50};
};

TEST_F(E15RescueTest, MultiPhaseRescueIsPrunedBetweenBoundaries) {
  EXPECT_FALSE(plan_concurrent(supply(), rho(), PlanningPolicy::kAsap));

  SystemState s(supply(), 0);
  s.accommodate(rho());
  // The admission kernel's probe budget.
  const FeasibilityOptions kernel_probe{20'000, 256};
  const FeasibilityResult r = decide_feasibility(s, 50, kernel_probe);
  ASSERT_EQ(r.verdict, FeasibilityVerdict::kFeasible);
  EXPECT_EQ(r.stats.free_cuts, 10u);
  EXPECT_LE(r.stats.nodes, 100u) << "pruning between boundaries regressed";
  const std::vector<std::vector<Tick>> first_witness{
      {0, 23, 25, 50}, {0, 31, 33, 38, 40, 50}, {0, 39, 41, 44, 46, 50}};
  EXPECT_EQ(r.boundaries, first_witness);
  const auto path = realize_feasibility(s, r);
  ASSERT_TRUE(path.has_value());
  EXPECT_TRUE(path->back().all_finished());

  FeasibilityVerdict verdict = FeasibilityVerdict::kUnknown;
  const auto plan =
      symbolic_concurrent_plan(supply(), rho(), 0, kernel_probe, &verdict);
  EXPECT_EQ(verdict, FeasibilityVerdict::kFeasible);
  ASSERT_TRUE(plan.has_value());
  EXPECT_LE(plan->finish, 50);
}

TEST(MaxFlowTest, ResetSolverMatchesFreshSolver) {
  // Two transportation-shaped graphs of different sizes: (from, to, cap).
  using Edges = std::vector<std::tuple<std::size_t, std::size_t, std::int64_t>>;
  const Edges big{{0, 1, 3}, {0, 2, 2}, {0, 3, 4}, {1, 4, 2}, {1, 5, 3},
                  {2, 4, 2}, {3, 5, 1}, {3, 6, 4}, {4, 7, 3}, {5, 7, 3},
                  {6, 7, 2}};
  const Edges small{{0, 1, 5}, {0, 2, 1}, {1, 3, 2}, {2, 3, 4}, {1, 2, 3}};
  struct Solved {
    std::int64_t flow;
    std::vector<std::int64_t> edge_flows;
  };
  auto solve = [](symbolic::MaxFlow& mf, std::size_t nodes, const Edges& edges) {
    mf.reset(nodes);
    std::vector<std::size_t> ids;
    for (const auto& [from, to, cap] : edges) ids.push_back(mf.add_edge(from, to, cap));
    Solved out{mf.solve(0, nodes - 1), {}};
    for (std::size_t id : ids) out.edge_flows.push_back(mf.flow_on(id));
    return out;
  };
  auto fresh = [&](std::size_t nodes, const Edges& edges) {
    symbolic::MaxFlow mf;
    return solve(mf, nodes, edges);
  };

  const Solved big_fresh = fresh(8, big);
  const Solved small_fresh = fresh(4, small);
  EXPECT_EQ(big_fresh.flow, 8);
  EXPECT_EQ(small_fresh.flow, 6);

  // One solver reused: larger graph, smaller, then the larger again.
  symbolic::MaxFlow reused;
  for (int round = 0; round < 2; ++round) {
    const Solved a = solve(reused, 8, big);
    EXPECT_EQ(a.flow, big_fresh.flow);
    EXPECT_EQ(a.edge_flows, big_fresh.edge_flows);
    const Solved b = solve(reused, 4, small);
    EXPECT_EQ(b.flow, small_fresh.flow);
    EXPECT_EQ(b.edge_flows, small_fresh.edge_flows);
  }
}

}  // namespace
}  // namespace rota
