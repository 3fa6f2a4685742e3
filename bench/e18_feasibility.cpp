// E18: symbolic feasibility vs a brute-force static-order sweep.
//
// Two sections, one artifact (BENCH_feasibility.json; pass a path as argv[1]
// to redirect):
//
//   parity  — the feasibility differential-oracle family at a pinned seed:
//     the symbolic cut-point engine, search_feasible's ladder and the fuzz
//     harness's static-order sweep decide the same randomized multi-actor
//     instances, with witness replay and (on tiny instances) a bounded
//     exhaustive adjudicator. Any divergence is fatal (exit 1) and printed
//     as a reproduction recipe. The committed artifact runs >= 600 cases;
//     --smoke shrinks that to 120 for CI.
//
//   scaling — the drip/hog family (one uncapped hog ranked first, n-1
//     zero-slack capped drips: every greedy order fails) at n = 2..10
//     commitments. The sweep (fuzz::static_order_sweep) needs ~n! greedy
//     runs and refuses outright above its ceiling (fuzz::kMaxSweepActors =
//     6); the symbolic engine decides every size with a single polynomial
//     flow check (single-phase instances spend zero DFS nodes). Each row
//     records both engines' wall time, the sweep's deterministic count of
//     orders tried, and the verdicts — rows above the ceiling must show the
//     symbolic engine deciding what the sweep refused, which is the point of
//     the engine.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "rota/computation/requirement.hpp"
#include "rota/fuzz/exhaustive.hpp"
#include "rota/fuzz/oracles.hpp"
#include "rota/logic/symbolic/feasibility.hpp"

namespace {

using namespace rota;

std::size_t host_cpus() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

std::size_t host_cpus_online() {
#if defined(_SC_NPROCESSORS_ONLN)
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  if (n > 0) return static_cast<std::size_t>(n);
#endif
  return host_cpus();
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Hog-first drip/hog instance (mirrors tests/test_symbolic.cpp): supply
/// n/tick over [0, 12); one uncapped hog wanting 12, n-1 drips wanting 12 at
/// cap 1 (zero slack). Feasible only when every drip outranks the hog, and
/// all greedy orders tie into index order, so no greedy order finds it.
struct DripHog {
  ResourceSet supply;
  std::vector<ComplexRequirement> actors;
};

DripHog drip_hog(std::size_t n) {
  const Location site("e18");
  const LocatedType cpu = LocatedType::cpu(site);
  const TimeInterval w(0, 12);
  const auto mk = [&](const std::string& name, Rate cap) {
    Phase p;
    p.demand.add(cpu, 12);
    p.first_action = 0;
    p.action_count = 1;
    return ComplexRequirement(name, {p}, w, cap);
  };
  std::vector<ComplexRequirement> actors;
  actors.push_back(mk("hog", 0));
  for (std::size_t i = 0; i + 1 < n; ++i) {
    actors.push_back(mk("drip" + std::to_string(i), 1));
  }
  ResourceSet supply;
  supply.add(static_cast<Rate>(n), w, cpu);
  return DripHog{std::move(supply), std::move(actors)};
}

struct ScalingRow {
  std::size_t commitments = 0;
  std::string symbolic_verdict;
  double symbolic_us = 0.0;
  std::uint64_t symbolic_nodes = 0;
  std::uint64_t symbolic_flow_checks = 0;
  std::string explorer;  // sweep outcome: "path" | "refused" | "exhausted"
  double explorer_us = 0.0;
  std::size_t sweep_permutations = 0;
};

constexpr int kTrials = 3;

ScalingRow bench_size(std::size_t n) {
  const DripHog instance = drip_hog(n);
  SystemState start(instance.supply, 0);
  start.accommodate(
      ConcurrentRequirement("dh", instance.actors, TimeInterval(0, 12)));
  ScalingRow row;
  row.commitments = n;

  FeasibilityResult sym;
  double best = 1e100;
  for (int t = 0; t < kTrials; ++t) {
    const double t0 = now_seconds();
    sym = decide_feasibility(start, 12);
    best = std::min(best, now_seconds() - t0);
  }
  row.symbolic_verdict = feasibility_verdict_name(sym.verdict);
  row.symbolic_us = best * 1e6;
  row.symbolic_nodes = sym.stats.nodes;
  row.symbolic_flow_checks = sym.stats.flow_checks;

  std::optional<fuzz::SweepResult> sweep;
  best = 1e100;
  for (int t = 0; t < kTrials; ++t) {
    const double t0 = now_seconds();
    sweep = fuzz::static_order_sweep(instance.supply, instance.actors, 12);
    best = std::min(best, now_seconds() - t0);
  }
  row.explorer_us = best * 1e6;
  row.sweep_permutations = sweep ? sweep->permutations : 0;
  row.explorer = !sweep ? "refused" : sweep->path ? "path" : "exhausted";
  return row;
}

bool write_json(const std::string& path, bool smoke,
                const fuzz::OracleReport& parity, std::size_t sweep_ceiling,
                const std::vector<ScalingRow>& scaling) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"bench\": \"e18_feasibility\",\n"
      << "  \"host_cpus\": " << host_cpus() << ",\n"
      << "  \"host_cpus_online\": " << host_cpus_online() << ",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"sweep_ceiling\": " << sweep_ceiling << ",\n"
      << "  \"parity\": {\"seed\": 2026, \"cases\": " << parity.cases
      << ", \"checks\": " << parity.checks
      << ", \"divergences\": " << parity.divergence_count << "},\n"
      << "  \"scaling\": [\n";
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    const ScalingRow& r = scaling[i];
    out << "    {\"commitments\": " << r.commitments << ", \"symbolic_verdict\": \""
        << r.symbolic_verdict << "\", \"symbolic_us\": " << r.symbolic_us
        << ", \"symbolic_nodes\": " << r.symbolic_nodes
        << ", \"symbolic_flow_checks\": " << r.symbolic_flow_checks
        << ", \"explorer\": \"" << r.explorer
        << "\", \"explorer_us\": " << r.explorer_us
        << ", \"explorer_permutations\": " << r.sweep_permutations << "}"
        << (i + 1 < scaling.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << "== E18: symbolic feasibility vs brute-force static-order sweep ==\n\n";
  std::string json_path = "BENCH_feasibility.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      json_path = arg;
    }
  }

  // Section 1: verdict parity at a pinned seed, divergences fatal.
  const std::size_t cases = smoke ? 120 : 600;
  std::cout << "parity: feasibility oracle family, seed 2026, " << cases
            << " cases" << (smoke ? " (smoke mode)" : "") << "...\n";
  const fuzz::OracleReport parity = fuzz::run_feasibility_oracle(2026, cases);
  std::cout << "  " << parity.summary() << "\n";
  if (!parity.clean()) {
    for (const fuzz::Divergence& d : parity.divergences) {
      std::cerr << "  " << d.to_string() << "\n";
    }
    std::cerr << "FATAL: engines diverged — not writing " << json_path << "\n";
    return 1;
  }

  // Section 2: time vs commitment count on the drip/hog family.
  const std::size_t sweep_ceiling = fuzz::kMaxSweepActors;
  const std::size_t max_n = smoke ? 8 : 10;
  std::vector<ScalingRow> scaling;
  std::cout << "\ncommitments   symbolic        sweep           permutations\n";
  for (std::size_t n = 2; n <= max_n; ++n) {
    const ScalingRow row = bench_size(n);
    std::printf("%11zu   %-8s %5.0fus  %-9s %7.0fus  %10llu\n", n,
                row.symbolic_verdict.c_str(), row.symbolic_us,
                row.explorer.c_str(), row.explorer_us,
                static_cast<unsigned long long>(row.sweep_permutations));
    // The whole family is feasible and single-phase: the symbolic engine
    // must decide every size without spending a DFS node, and above the
    // sweep ceiling it must decide what the sweep refused.
    if (row.symbolic_verdict != "feasible" || row.symbolic_nodes != 0) {
      std::cerr << "FATAL: symbolic engine failed to flat-decide n=" << n << "\n";
      return 1;
    }
    if (n <= sweep_ceiling && row.explorer != "path") {
      std::cerr << "FATAL: sweep missed the feasible order at n=" << n << "\n";
      return 1;
    }
    if (n > sweep_ceiling && row.explorer != "refused") {
      std::cerr << "FATAL: sweep did not refuse n=" << n
                << " (> ceiling " << sweep_ceiling << ")\n";
      return 1;
    }
    scaling.push_back(row);
  }

  if (!write_json(json_path, smoke, parity, sweep_ceiling, scaling)) {
    std::cerr << "\nERROR: could not write " << json_path << "\n";
    return 1;
  }
  std::cout << "\nwrote " << json_path << "\n";
  return 0;
}
