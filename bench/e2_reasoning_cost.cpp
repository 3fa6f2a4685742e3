// E2: cost of the reasoning itself — the paper's §VI concern ("algorithmic
// complexity of the reasoning enabled by ROTA is obviously high").
//
// Measures feasibility-check latency as a function of:
//   * actors per computation        (BM_FeasibilityVsActors)
//   * actions per actor             (BM_FeasibilityVsActions)
//   * locations (resource types)    (BM_FeasibilityVsLocations)
//   * committed computations ahead  (BM_AdmissionVsCommitments)
// and contrasts the polynomial greedy witness generator with the
// exponential schedule search on identical small instances.
#include <benchmark/benchmark.h>

#include <iostream>

#include "rota/admission/controller.hpp"
#include "rota/logic/theorems.hpp"
#include "rota/workload/generator.hpp"

namespace {

using namespace rota;

WorkloadConfig config_for(std::size_t locations, std::size_t actors,
                          std::size_t actions, std::uint64_t seed = 11) {
  WorkloadConfig c;
  c.seed = seed;
  c.num_locations = locations;
  c.cpu_rate = 20;
  c.network_rate = 20;
  c.actors_min = c.actors_max = actors;
  c.actions_min = c.actions_max = actions;
  c.laxity = 3.0;
  return c;
}

void run_feasibility(benchmark::State& state, std::size_t locations,
                     std::size_t actors, std::size_t actions) {
  WorkloadGenerator gen(config_for(locations, actors, actions), CostModel());
  const ResourceSet supply = gen.base_supply(TimeInterval(0, 4000));
  std::vector<ConcurrentRequirement> reqs;
  for (int i = 0; i < 32; ++i) {
    reqs.push_back(make_concurrent_requirement(gen.phi(), gen.make_computation(0)));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        plan_concurrent(supply, reqs[i++ & 31], PlanningPolicy::kAsap));
  }
}

void BM_FeasibilityVsActors(benchmark::State& state) {
  run_feasibility(state, 4, static_cast<std::size_t>(state.range(0)), 6);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FeasibilityVsActors)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Complexity();

void BM_FeasibilityVsActions(benchmark::State& state) {
  run_feasibility(state, 4, 2, static_cast<std::size_t>(state.range(0)));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FeasibilityVsActions)->Arg(2)->Arg(8)->Arg(32)->Arg(128)->Complexity();

void BM_FeasibilityVsLocations(benchmark::State& state) {
  run_feasibility(state, static_cast<std::size_t>(state.range(0)), 2, 6);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FeasibilityVsLocations)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Complexity();

void BM_AdmissionVsCommitments(benchmark::State& state) {
  // Latency of one more admission decision when the ledger already carries N
  // commitments (the online Theorem-4 path).
  WorkloadGenerator gen(config_for(4, 2, 6, 23), CostModel());
  const Tick horizon = 100000;
  const ResourceSet supply = gen.base_supply(TimeInterval(0, horizon));
  RotaAdmissionController ctl(gen.phi(), supply);
  // Pre-admit N computations in disjoint windows so they all fit.
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    DistributedComputation c = gen.make_computation(i * 50);
    ctl.request(c, 0);
  }
  std::vector<DistributedComputation> probes;
  for (int i = 0; i < 16; ++i) probes.push_back(gen.make_computation(i * 37));
  std::size_t i = 0;
  for (auto _ : state) {
    RotaAdmissionController copy = ctl;
    benchmark::DoNotOptimize(copy.request(probes[i++ & 15], 0));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AdmissionVsCommitments)->Arg(1)->Arg(8)->Arg(32)->Arg(128)->Complexity();

void BM_GreedyWitness(benchmark::State& state) {
  // Greedy witness generation (run_greedy) over the transition rules.
  WorkloadGenerator gen(config_for(3, 2, 6, 31), CostModel());
  const ResourceSet supply = gen.base_supply(TimeInterval(0, 2000));
  DistributedComputation c = gen.make_computation(0);
  ConcurrentRequirement rho = make_concurrent_requirement(gen.phi(), c);
  for (auto _ : state) {
    SystemState s0(supply, 0);
    s0.accommodate(rho);
    benchmark::DoNotOptimize(run_greedy(std::move(s0), c.deadline(),
                                        PriorityOrder::kEdf));
  }
}
BENCHMARK(BM_GreedyWitness);

void BM_ExhaustiveSearch(benchmark::State& state) {
  // The schedule search (greedy orders, then the symbolic cut-point engine)
  // on small multi-computation states.
  WorkloadGenerator gen(config_for(3, 1, 4, 37), CostModel());
  const ResourceSet supply = gen.base_supply(TimeInterval(0, 2000));
  SystemState s0(supply, 0);
  Tick horizon = 0;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    DistributedComputation c = gen.make_computation(0);
    s0.accommodate(make_concurrent_requirement(gen.phi(), c));
    horizon = std::max(horizon, c.deadline());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(search_feasible(s0, horizon));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ExhaustiveSearch)->Arg(1)->Arg(3)->Arg(5)->Complexity();

}  // namespace

int main(int argc, char** argv) {
  std::cout << "== E2: reasoning cost (paper Section VI complexity concern) ==\n"
               "greedy feasibility is polynomial; the schedule search adds the\n"
               "symbolic cut-point engine, bounded by its node budget.\n\n";
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
