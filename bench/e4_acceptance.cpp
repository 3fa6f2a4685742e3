// E4: acceptance ratio vs load, and the crossover where over-admission stops
// paying. ROTA accepts less than the unsound baselines, but *useful*
// throughput (jobs that actually meet their deadlines) tells the real story:
// past saturation the baselines' on-time count falls below ROTA's.
#include <benchmark/benchmark.h>

#include <iostream>
#include <memory>

#include "rota/admission/baselines.hpp"
#include "rota/sim/simulator.hpp"
#include "rota/util/table.hpp"
#include "rota/workload/generator.hpp"

namespace {

using namespace rota;

struct Outcome {
  std::size_t offered = 0;
  std::size_t admitted = 0;
  std::size_t on_time = 0;
};

Outcome offered_load(AdmissionStrategy& strategy, ExecutionMode mode, double gap,
                     std::uint64_t seed) {
  WorkloadConfig config;
  config.seed = seed;
  config.num_locations = 3;
  config.cpu_rate = 8;
  config.network_rate = 8;
  config.mean_interarrival = gap;
  config.laxity = 1.6;
  const Tick horizon = 700;

  WorkloadGenerator gen(config, CostModel());
  const ResourceSet supply = gen.base_supply(TimeInterval(0, horizon));
  const auto arrivals = gen.make_arrivals(horizon * 2 / 3);

  Simulator sim(supply, 0, mode, PriorityOrder::kEdf);
  Outcome out;
  out.offered = arrivals.size();
  for (const Arrival& a : arrivals) {
    AdmissionDecision d = strategy.request(a.computation, a.at);
    if (!d.accepted) continue;
    ++out.admitted;
    sim.schedule_admission(a.at,
                           make_concurrent_requirement(gen.phi(), a.computation),
                           std::move(d.plan));
  }
  SimReport report = sim.run(horizon);
  out.on_time = report.met();
  return out;
}

void print_acceptance_sweep() {
  util::Table table({"interarrival", "strategy", "offered", "acceptance", "on-time",
                     "on-time ratio"});
  for (double gap : {32.0, 16.0, 8.0, 4.0, 2.0}) {
    WorkloadConfig probe;
    probe.num_locations = 3;
    probe.cpu_rate = 8;
    probe.network_rate = 8;
    WorkloadGenerator probe_gen(probe, CostModel());
    const ResourceSet supply = probe_gen.base_supply(TimeInterval(0, 700));

    RotaAdmissionController rota(CostModel(), supply);
    NaiveTotalQuantityStrategy naive(CostModel(), supply);
    AlwaysAdmitStrategy always;

    struct Row {
      const char* label;
      AdmissionStrategy* strategy;
      ExecutionMode mode;
    } rows[] = {
        {"rota-asap", &rota, ExecutionMode::kPlanFollowing},
        {"naive-total", &naive, ExecutionMode::kWorkConserving},
        {"always-admit", &always, ExecutionMode::kWorkConserving},
    };
    for (const Row& r : rows) {
      Outcome o = offered_load(*r.strategy, r.mode, gap, /*seed=*/515);
      table.add_row(
          {util::fixed(gap, 1), r.label, std::to_string(o.offered),
           util::fixed(o.offered ? static_cast<double>(o.admitted) / o.offered : 0, 3),
           std::to_string(o.on_time),
           util::fixed(o.offered ? static_cast<double>(o.on_time) / o.offered : 0, 3)});
    }
  }
  std::cout << "== E4: acceptance and useful (on-time) throughput vs load ==\n"
            << table.to_string()
            << "\nwatch the crossover: under light load everyone looks fine; as "
               "load grows,\nover-admission converts accepted jobs into missed "
               "deadlines.\n\n";
}

void BM_AcceptanceSweepPoint(benchmark::State& state) {
  for (auto _ : state) {
    WorkloadConfig probe;
    probe.num_locations = 3;
    probe.cpu_rate = 8;
    probe.network_rate = 8;
    WorkloadGenerator gen(probe, CostModel());
    RotaAdmissionController rota(CostModel(), gen.base_supply(TimeInterval(0, 700)));
    benchmark::DoNotOptimize(
        offered_load(rota, ExecutionMode::kPlanFollowing, 8.0, 516));
  }
}
BENCHMARK(BM_AcceptanceSweepPoint)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_acceptance_sweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
