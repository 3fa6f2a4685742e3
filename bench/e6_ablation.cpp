// E6: ablation of the planner's design choices (DESIGN.md §5):
//   * schedule policy — ASAP vs ALAP vs UNIFORM consumption;
//   * admission order within a multi-actor computation — given order vs
//     most-demanding-first;
//   * executor discipline for the same admitted set — plan-following vs EDF
//     vs FCFS work-conserving.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <iostream>
#include <numeric>

#include "rota/admission/controller.hpp"
#include "rota/sim/simulator.hpp"
#include "rota/util/table.hpp"
#include "rota/workload/generator.hpp"

namespace {

using namespace rota;

WorkloadGenerator make_generator(std::uint64_t seed) {
  WorkloadConfig config;
  config.seed = seed;
  config.num_locations = 3;
  config.cpu_rate = 6;
  config.network_rate = 6;
  config.mean_interarrival = 5.0;  // saturating load
  config.laxity = 1.8;             // tight deadlines expose policy differences
  config.actors_min = 1;
  config.actors_max = 3;
  return WorkloadGenerator(config, CostModel());
}

void print_policy_ablation() {
  util::Table table({"policy", "offered", "admitted", "acceptance", "misses"});
  for (PlanningPolicy policy :
       {PlanningPolicy::kAsap, PlanningPolicy::kAlap, PlanningPolicy::kUniform}) {
    WorkloadGenerator gen = make_generator(707);
    const Tick horizon = 700;
    const ResourceSet supply = gen.base_supply(TimeInterval(0, horizon));
    RotaAdmissionController rota(gen.phi(), supply, policy);
    Simulator sim(supply, 0, ExecutionMode::kPlanFollowing);

    const auto arrivals = gen.make_arrivals(horizon * 2 / 3);
    std::size_t admitted = 0;
    for (const Arrival& a : arrivals) {
      AdmissionDecision d = rota.request(a.computation, a.at);
      if (!d.accepted) continue;
      ++admitted;
      sim.schedule_admission(a.at,
                             make_concurrent_requirement(gen.phi(), a.computation),
                             std::move(d.plan));
    }
    SimReport report = sim.run(horizon);
    table.add_row({policy_name(policy), std::to_string(arrivals.size()),
                   std::to_string(admitted),
                   util::fixed(static_cast<double>(admitted) / arrivals.size(), 3),
                   std::to_string(report.missed())});
  }
  std::cout << "== E6a: schedule-policy ablation (same workload) ==\n"
            << table.to_string()
            << "\nASAP leaves the most tail headroom for later arrivals; ALAP "
               "preserves\nearly supply; UNIFORM is simplest and accepts "
               "least.\n\n";
}

void print_order_ablation() {
  // Within multi-actor computations: does planning the hungriest actor first
  // change acceptance?
  util::Table table({"actor order", "offered", "admitted"});
  for (bool demanding_first : {false, true}) {
    WorkloadGenerator gen = make_generator(717);
    const Tick horizon = 700;
    const ResourceSet supply = gen.base_supply(TimeInterval(0, horizon));
    RotaAdmissionController ctl(gen.phi(), supply);
    const auto arrivals = gen.make_arrivals(horizon * 2 / 3);
    std::size_t admitted = 0;
    for (const Arrival& a : arrivals) {
      ConcurrentRequirement rho =
          make_concurrent_requirement(gen.phi(), a.computation);
      if (demanding_first) {
        // Re-order actors by descending total demand before planning.
        std::vector<ComplexRequirement> actors = rho.actors();
        std::stable_sort(actors.begin(), actors.end(),
                         [](const ComplexRequirement& x, const ComplexRequirement& y) {
                           return x.total_demand().total() > y.total_demand().total();
                         });
        rho = ConcurrentRequirement(rho.name(), std::move(actors), rho.window());
      }
      if (ctl.request(rho, a.at).accepted) ++admitted;
    }
    table.add_row({demanding_first ? "most-demanding-first" : "as-given",
                   std::to_string(arrivals.size()), std::to_string(admitted)});
  }
  std::cout << "== E6b: actor planning order within a computation ==\n"
            << table.to_string() << "\n";
}

void print_executor_ablation() {
  // Same ROTA-admitted set, three executors.
  util::Table table({"executor", "admitted", "misses"});
  struct Mode {
    const char* label;
    ExecutionMode mode;
    PriorityOrder order;
  } modes[] = {
      {"plan-following", ExecutionMode::kPlanFollowing, PriorityOrder::kEdf},
      {"work-conserving edf", ExecutionMode::kWorkConserving, PriorityOrder::kEdf},
      {"work-conserving fcfs", ExecutionMode::kWorkConserving, PriorityOrder::kFcfs},
  };
  for (const Mode& m : modes) {
    WorkloadGenerator gen = make_generator(727);
    const Tick horizon = 700;
    const ResourceSet supply = gen.base_supply(TimeInterval(0, horizon));
    RotaAdmissionController rota(gen.phi(), supply);
    Simulator sim(supply, 0, m.mode, m.order);
    std::size_t admitted = 0;
    for (const Arrival& a : gen.make_arrivals(horizon * 2 / 3)) {
      AdmissionDecision d = rota.request(a.computation, a.at);
      if (!d.accepted) continue;
      ++admitted;
      sim.schedule_admission(a.at,
                             make_concurrent_requirement(gen.phi(), a.computation),
                             std::move(d.plan));
    }
    table.add_row({m.label, std::to_string(admitted),
                   std::to_string(sim.run(horizon).missed())});
  }
  std::cout << "== E6c: executor discipline for the same admitted set ==\n"
            << table.to_string()
            << "\nplan-following is the assurance guarantee; work-conserving "
               "executors\nusually coincide here because plans never "
               "over-book.\n\n";
}

void BM_PlanPolicies(benchmark::State& state) {
  WorkloadGenerator gen = make_generator(737);
  const ResourceSet supply = gen.base_supply(TimeInterval(0, 2000));
  DistributedComputation c = gen.make_computation(0);
  ConcurrentRequirement rho = make_concurrent_requirement(gen.phi(), c);
  const auto policy = static_cast<PlanningPolicy>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan_concurrent(supply, rho, policy));
  }
  state.SetLabel(policy_name(policy));
}
BENCHMARK(BM_PlanPolicies)->Arg(0)->Arg(1)->Arg(2);

}  // namespace

int main(int argc, char** argv) {
  print_policy_ablation();
  print_order_ablation();
  print_executor_ablation();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
