// Cluster admission control: a stream of deadline-constrained jobs arrives
// at a small cluster; ROTA admission (Theorem 4) is compared against an
// optimistic controller on the same workload. Admitted jobs execute in a
// shared work-conserving EDF simulator — over-admission turns into missed
// deadlines, assurance turns into a clean record.
//
// Build & run:  ./build/examples/cluster_admission
#include <iostream>
#include <memory>

#include "rota/rota.hpp"
#include "rota/util/table.hpp"

int main() {
  using namespace rota;
  using util::Table;

  const Tick horizon = 600;
  WorkloadConfig config;
  config.seed = 2026;
  config.num_locations = 4;
  config.cpu_rate = 6;
  config.network_rate = 6;
  config.mean_interarrival = 2.5;  // an overloaded cluster (~1.7x capacity)
  config.laxity = 1.5;

  WorkloadGenerator generator(config, CostModel());
  const ResourceSet supply = generator.base_supply(TimeInterval(0, horizon));
  const auto arrivals = generator.make_arrivals(horizon / 2);

  std::cout << "Cluster: " << config.num_locations << " nodes, "
            << arrivals.size() << " job arrivals over " << horizon / 2
            << " ticks\n\n";

  Table table({"strategy", "execution", "admitted", "met", "missed", "miss-rate",
               "utilization"});

  auto evaluate = [&](AdmissionStrategy& strategy, ExecutionMode mode) {
    Simulator sim(supply, 0, mode, PriorityOrder::kEdf);
    for (const Arrival& a : arrivals) {
      AdmissionDecision d = strategy.request(a.computation, a.at);
      if (!d.accepted) continue;
      sim.schedule_admission(
          a.at, make_concurrent_requirement(generator.phi(), a.computation),
          std::move(d.plan));
    }
    SimReport report = sim.run(horizon);
    table.add_row({strategy.name(), execution_mode_name(mode),
                   std::to_string(report.admitted()), std::to_string(report.met()),
                   std::to_string(report.missed()), util::fixed(report.miss_rate(), 3),
                   util::fixed(report.utilization(), 3)});
  };

  RotaAdmissionController rota(generator.phi(), supply);
  evaluate(rota, ExecutionMode::kPlanFollowing);

  RotaAdmissionController rota_edf(generator.phi(), supply);
  evaluate(rota_edf, ExecutionMode::kWorkConserving);

  NaiveTotalQuantityStrategy naive(generator.phi(), supply);
  evaluate(naive, ExecutionMode::kWorkConserving);

  OptimisticStrategy optimistic(generator.phi(), supply);
  evaluate(optimistic, ExecutionMode::kWorkConserving);

  AlwaysAdmitStrategy always;
  evaluate(always, ExecutionMode::kWorkConserving);

  std::cout << table.to_string()
            << "\nROTA admits fewer jobs but every one of them meets its "
               "deadline;\nquantity-only and optimistic admission trade "
               "assurance for volume.\n";
  return 0;
}
