// E3: deadline assurance — the headline experiment. Identical workloads are
// offered to each admission strategy across a load sweep; admitted sets
// execute in the simulator. Assurance = deadline-miss rate among admitted
// computations. Expected shape: ROTA ≈ 0 misses at every load; the
// quantity-blind baselines' miss rates climb with load.
#include <benchmark/benchmark.h>

#include <functional>
#include <iostream>
#include <memory>

#include "rota/admission/baselines.hpp"
#include "rota/sim/simulator.hpp"
#include "rota/util/table.hpp"
#include "rota/workload/generator.hpp"

namespace {

using namespace rota;

struct StrategyResult {
  std::size_t offered = 0;
  std::size_t admitted = 0;
  std::size_t missed = 0;
  double utilization = 0.0;
};

StrategyResult run_once(AdmissionStrategy& strategy, ExecutionMode mode,
                        double mean_interarrival, std::uint64_t seed) {
  WorkloadConfig config;
  config.seed = seed;
  config.num_locations = 4;
  config.cpu_rate = 8;
  config.network_rate = 8;
  config.mean_interarrival = mean_interarrival;
  config.laxity = 1.6;

  const Tick horizon = 800;
  WorkloadGenerator gen(config, CostModel());
  const ResourceSet supply = gen.base_supply(TimeInterval(0, horizon));
  const auto arrivals = gen.make_arrivals(horizon * 2 / 3);

  Simulator sim(supply, 0, mode, PriorityOrder::kEdf);
  StrategyResult result;
  result.offered = arrivals.size();
  for (const Arrival& a : arrivals) {
    AdmissionDecision d = strategy.request(a.computation, a.at);
    if (!d.accepted) continue;
    ++result.admitted;
    sim.schedule_admission(a.at,
                           make_concurrent_requirement(gen.phi(), a.computation),
                           std::move(d.plan));
  }
  SimReport report = sim.run(horizon);
  result.missed = report.missed();
  result.utilization = report.utilization();
  return result;
}

void print_assurance_sweep() {
  util::Table table({"load (1/interarrival)", "strategy", "offered", "admitted",
                     "missed", "miss-rate", "utilization"});

  const double interarrivals[] = {16.0, 8.0, 4.0, 2.0};
  for (double gap : interarrivals) {
    struct Entry {
      std::string label;
      std::function<std::unique_ptr<AdmissionStrategy>(const ResourceSet&)> make;
      ExecutionMode mode;
    };
    // Strategies are rebuilt per load so ledgers start clean. The supply they
    // see must match the simulator's: rebuild it identically inside run_once.
    WorkloadConfig probe;
    probe.num_locations = 4;
    probe.cpu_rate = 8;
    probe.network_rate = 8;
    WorkloadGenerator probe_gen(probe, CostModel());
    const ResourceSet supply = probe_gen.base_supply(TimeInterval(0, 800));

    const std::vector<Entry> entries = {
        {"rota-asap (plan-following)",
         [](const ResourceSet& s) {
           return std::make_unique<RotaAdmissionController>(
               CostModel(), s, PlanningPolicy::kAsap);
         },
         ExecutionMode::kPlanFollowing},
        {"rota-asap (edf executor)",
         [](const ResourceSet& s) {
           return std::make_unique<RotaAdmissionController>(
               CostModel(), s, PlanningPolicy::kAsap);
         },
         ExecutionMode::kWorkConserving},
        {"naive-total",
         [](const ResourceSet& s) {
           return std::make_unique<NaiveTotalQuantityStrategy>(CostModel(), s);
         },
         ExecutionMode::kWorkConserving},
        {"optimistic",
         [](const ResourceSet& s) {
           return std::make_unique<OptimisticStrategy>(CostModel(), s);
         },
         ExecutionMode::kWorkConserving},
        {"always-admit",
         [](const ResourceSet&) { return std::make_unique<AlwaysAdmitStrategy>(); },
         ExecutionMode::kWorkConserving},
    };

    for (const Entry& e : entries) {
      auto strategy = e.make(supply);
      StrategyResult r = run_once(*strategy, e.mode, gap, /*seed=*/404);
      const double miss_rate =
          r.admitted == 0 ? 0.0 : static_cast<double>(r.missed) / r.admitted;
      table.add_row({util::fixed(1.0 / gap, 3), e.label, std::to_string(r.offered),
                     std::to_string(r.admitted), std::to_string(r.missed),
                     util::fixed(miss_rate, 3), util::fixed(r.utilization, 3)});
    }
  }
  std::cout << "== E3: deadline assurance across load (miss rate among admitted) ==\n"
            << table.to_string() << "\n";
}

void BM_AdmitAndSimulate(benchmark::State& state) {
  for (auto _ : state) {
    WorkloadConfig probe;
    probe.num_locations = 4;
    probe.cpu_rate = 8;
    probe.network_rate = 8;
    WorkloadGenerator gen(probe, CostModel());
    RotaAdmissionController rota(CostModel(), gen.base_supply(TimeInterval(0, 800)));
    benchmark::DoNotOptimize(
        run_once(rota, ExecutionMode::kPlanFollowing, 6.0, 405));
  }
}
BENCHMARK(BM_AdmitAndSimulate)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_assurance_sweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
