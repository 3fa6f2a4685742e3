// E7: substrate microbenchmarks — step-function algebra, interval sets, and
// IA constraint-network path consistency, as functions of instance size.
#include <benchmark/benchmark.h>

#include <iostream>
#include <string>
#include <vector>

#include "rota/resource/resource_set.hpp"
#include "rota/resource/step_function.hpp"
#include "rota/time/ia_network.hpp"
#include "rota/time/interval_set.hpp"
#include "rota/util/rng.hpp"

namespace {

using namespace rota;

StepFunction make_step(int segments, std::uint64_t seed) {
  util::Rng rng(seed);
  StepFunction f;
  Tick cursor = 0;
  for (int i = 0; i < segments; ++i) {
    cursor += rng.uniform(1, 5);
    const Tick end = cursor + rng.uniform(1, 8);
    f.add(TimeInterval(cursor, end), rng.uniform(1, 16));
    cursor = end;
  }
  return f;
}

void BM_StepPlus(benchmark::State& state) {
  StepFunction a = make_step(static_cast<int>(state.range(0)), 1);
  StepFunction b = make_step(static_cast<int>(state.range(0)), 2);
  for (auto _ : state) benchmark::DoNotOptimize(a.plus(b));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_StepPlus)->Arg(4)->Arg(32)->Arg(256)->Arg(2048)->Complexity();

void BM_StepMinus(benchmark::State& state) {
  StepFunction a = make_step(static_cast<int>(state.range(0)), 3);
  StepFunction b = make_step(static_cast<int>(state.range(0)), 4);
  for (auto _ : state) benchmark::DoNotOptimize(a.minus(b));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_StepMinus)->Arg(4)->Arg(32)->Arg(256)->Arg(2048)->Complexity();

void BM_StepIntegral(benchmark::State& state) {
  StepFunction a = make_step(static_cast<int>(state.range(0)), 5);
  const TimeInterval window(0, 100000);
  for (auto _ : state) benchmark::DoNotOptimize(a.integral(window));
}
BENCHMARK(BM_StepIntegral)->Arg(4)->Arg(32)->Arg(256)->Arg(2048);

void BM_StepEarliestCover(benchmark::State& state) {
  StepFunction a = make_step(static_cast<int>(state.range(0)), 6);
  const Quantity target = a.integral() / 2;
  const TimeInterval window(0, 100000);
  for (auto _ : state) benchmark::DoNotOptimize(a.earliest_cover(window, target));
}
BENCHMARK(BM_StepEarliestCover)->Arg(4)->Arg(32)->Arg(256)->Arg(2048);

void BM_StepValueAt(benchmark::State& state) {
  StepFunction a = make_step(static_cast<int>(state.range(0)), 7);
  Tick t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.value_at(t));
    t = (t + 13) % 5000;
  }
}
BENCHMARK(BM_StepValueAt)->Arg(4)->Arg(256)->Arg(2048);

void BM_IntervalSetUnion(benchmark::State& state) {
  util::Rng rng(8);
  IntervalSet a, b;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    const Tick s1 = rng.uniform(0, 10000);
    a.insert(TimeInterval(s1, s1 + rng.uniform(1, 10)));
    const Tick s2 = rng.uniform(0, 10000);
    b.insert(TimeInterval(s2, s2 + rng.uniform(1, 10)));
  }
  for (auto _ : state) benchmark::DoNotOptimize(a.unioned(b));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_IntervalSetUnion)->Arg(8)->Arg(64)->Arg(512)->Complexity();

void BM_IntervalSetSubtract(benchmark::State& state) {
  util::Rng rng(9);
  IntervalSet a, b;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    const Tick s1 = rng.uniform(0, 10000);
    a.insert(TimeInterval(s1, s1 + rng.uniform(1, 20)));
    const Tick s2 = rng.uniform(0, 10000);
    b.insert(TimeInterval(s2, s2 + rng.uniform(1, 10)));
  }
  for (auto _ : state) benchmark::DoNotOptimize(a.subtracted(b));
}
BENCHMARK(BM_IntervalSetSubtract)->Arg(8)->Arg(64)->Arg(512);

ResourceSet make_resource_set(int types, int segments, std::uint64_t seed) {
  ResourceSet set;
  for (int t = 0; t < types; ++t) {
    Location l("mb-l" + std::to_string(t));
    set.add(t % 2 == 0 ? LocatedType::cpu(l)
                       : LocatedType::network(l, Location("mb-l0")),
            make_step(segments, seed * 131 + static_cast<std::uint64_t>(t)));
  }
  return set;
}

void BM_ResourceSetUnion(benchmark::State& state) {
  const int types = static_cast<int>(state.range(0));
  const int segments = static_cast<int>(state.range(1));
  const ResourceSet a = make_resource_set(types, segments, 11);
  const ResourceSet b = make_resource_set(types, segments, 12);
  for (auto _ : state) benchmark::DoNotOptimize(a.unioned(b));
}
BENCHMARK(BM_ResourceSetUnion)
    ->Args({4, 16})->Args({16, 16})->Args({64, 16})->Args({16, 256});

// Churned supply ingestion: N random terms, one at a time, over 8 located
// types — the acquisition rule Θ ∪ {[r]^τ_ξ} applied N times. Each add
// splices into the touched segments of one profile, so the whole build should
// grow near-linearly in N rather than quadratically.
void BM_ResourceSetAddTerms(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(17);
  std::vector<LocatedType> types;
  for (int t = 0; t < 8; ++t) {
    types.push_back(LocatedType::cpu(Location("mb-t" + std::to_string(t))));
  }
  std::vector<ResourceTerm> terms;
  terms.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Tick start = rng.uniform(0, 100000);
    terms.emplace_back(rng.uniform(1, 16), TimeInterval(start, start + rng.uniform(1, 400)),
                       types[rng.index(types.size())]);
  }
  for (auto _ : state) {
    ResourceSet supply;
    for (const ResourceTerm& term : terms) supply.add(term);
    benchmark::DoNotOptimize(supply);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ResourceSetAddTerms)->Arg(256)->Arg(2048)->Arg(16384)->Complexity();

void BM_ResourceSetRelativeComplement(benchmark::State& state) {
  const int types = static_cast<int>(state.range(0));
  const int segments = static_cast<int>(state.range(1));
  const ResourceSet a = make_resource_set(types, segments, 13);
  // Subtract a dominated subset so the complement exists on every iteration.
  ResourceSet b;
  for (const auto& type : a.types()) {
    b.add(type, a.availability(type).min(make_step(segments, 14)));
  }
  for (auto _ : state) benchmark::DoNotOptimize(a.relative_complement(b));
}
BENCHMARK(BM_ResourceSetRelativeComplement)
    ->Args({4, 16})->Args({16, 16})->Args({64, 16})->Args({16, 256});

void BM_ResourceSetDominates(benchmark::State& state) {
  const int types = static_cast<int>(state.range(0));
  const int segments = static_cast<int>(state.range(1));
  const ResourceSet a = make_resource_set(types, segments, 15);
  ResourceSet b;
  for (const auto& type : a.types()) {
    b.add(type, a.availability(type).min(make_step(segments, 16)));
  }
  for (auto _ : state) benchmark::DoNotOptimize(a.dominates(b));
}
BENCHMARK(BM_ResourceSetDominates)
    ->Args({4, 16})->Args({16, 16})->Args({64, 16})->Args({16, 256});

IaNetwork chain_network(std::size_t n) {
  IaNetwork net(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    AllenRelationSet rel(AllenRelation::kBefore);
    rel.insert(AllenRelation::kMeets);
    net.constrain(i, i + 1, rel);
  }
  // Anchor: everything during the last interval (a supply window).
  for (std::size_t i = 0; i + 1 < n; ++i) {
    net.constrain(i, n - 1, AllenRelation::kDuring);
  }
  return net;
}

void BM_PathConsistency(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    IaNetwork net = chain_network(n);
    benchmark::DoNotOptimize(net.propagate());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PathConsistency)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Complexity();

void BM_SolveScenario(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    IaNetwork net = chain_network(n);
    benchmark::DoNotOptimize(net.solve_scenario());
  }
}
BENCHMARK(BM_SolveScenario)->Arg(4)->Arg(8)->Arg(12);

}  // namespace

int main(int argc, char** argv) {
  std::cout << "== E7: substrate microbenchmarks ==\n\n";
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
