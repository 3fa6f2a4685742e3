// E10: sensitivity to Φ estimation error. The paper's footnote 3 allows Φ to
// be an estimate ("at the cost of some inefficiency, estimates could be used
// and revised as necessary") — this experiment quantifies that inefficiency.
// Admission reasons with an *estimated* cost model; execution charges *true*
// costs inflated by ε. Sweep ε and a provisioning safety margin m:
//   * with m = 0, misses appear once ε > 0 (assurance erodes with the
//     estimate);
//   * provisioning with m >= ε restores zero misses, at an acceptance cost.
#include <benchmark/benchmark.h>

#include <cmath>
#include <iostream>

#include "rota/admission/controller.hpp"
#include "rota/sim/simulator.hpp"
#include "rota/util/table.hpp"
#include "rota/workload/generator.hpp"

namespace {

using namespace rota;

/// Cost parameters scaled by (1 + f); used both to inflate "true" execution
/// costs (f = ε) and to pad the admission-side estimate (f = margin).
CostParameters scaled_parameters(double f) {
  auto scale = [f](Quantity q) {
    return static_cast<Quantity>(std::llround(static_cast<double>(q) * (1.0 + f)));
  };
  CostParameters p;  // defaults = the paper's numbers
  p.evaluate_per_weight = scale(p.evaluate_per_weight);
  p.send_base = scale(p.send_base);
  p.local_send_cpu = scale(p.local_send_cpu);
  p.create_base = scale(p.create_base);
  p.ready_cost = scale(p.ready_cost);
  p.migrate_cpu_each_side = scale(p.migrate_cpu_each_side);
  p.migrate_network_base = scale(p.migrate_network_base);
  return p;
}

struct PhiErrorResult {
  std::size_t offered = 0;
  std::size_t admitted = 0;
  std::size_t missed = 0;
};

PhiErrorResult run_with_error(double epsilon, double margin, std::uint64_t seed) {
  WorkloadConfig config;
  config.seed = seed;
  config.num_locations = 3;
  config.cpu_rate = 8;
  config.network_rate = 8;
  config.mean_interarrival = 6.0;
  config.laxity = 1.8;
  const Tick horizon = 800;

  // Workload actions are generated once; admission sees the padded estimate,
  // the simulator charges the inflated truth.
  WorkloadGenerator gen(config, CostModel());
  const ResourceSet supply = gen.base_supply(TimeInterval(0, horizon));
  const CostModel estimate(scaled_parameters(margin));
  const CostModel truth(scaled_parameters(epsilon));

  RotaAdmissionController rota(estimate, supply);
  // Execution must be work-conserving: plans sized by the estimate cannot
  // drain inflated true demands, so the executor shares supply greedily.
  Simulator sim(supply, 0, ExecutionMode::kWorkConserving, PriorityOrder::kEdf);

  PhiErrorResult result;
  for (const Arrival& a : gen.make_arrivals(horizon * 2 / 3)) {
    ++result.offered;
    AdmissionDecision d = rota.request(a.computation, a.at);
    if (!d.accepted) continue;
    ++result.admitted;
    sim.schedule_admission(a.at, make_concurrent_requirement(truth, a.computation));
  }
  result.missed = sim.run(horizon).missed();
  return result;
}

void print_phi_error_sweep() {
  util::Table table({"true error e", "margin m", "offered", "admitted", "missed",
                     "miss-rate"});
  for (double epsilon : {0.0, 0.25, 0.5}) {
    for (double margin : {0.0, 0.25, 0.5}) {
      PhiErrorResult r = run_with_error(epsilon, margin, 1010);
      table.add_row(
          {util::fixed(epsilon, 2), util::fixed(margin, 2),
           std::to_string(r.offered), std::to_string(r.admitted),
           std::to_string(r.missed),
           util::fixed(r.admitted ? static_cast<double>(r.missed) / r.admitted : 0.0,
                       3)});
    }
  }
  std::cout << "== E10: assurance vs Phi estimation error (paper footnote 3) ==\n"
            << table.to_string()
            << "\nshape: misses appear when the margin is smaller than the true "
               "error and\nvanish once m >= e; the price of the margin is "
               "acceptance.\n\n";
}

void BM_PhiErrorScenario(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_with_error(0.25, 0.25, 1011));
  }
}
BENCHMARK(BM_PhiErrorScenario)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_phi_error_sweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
