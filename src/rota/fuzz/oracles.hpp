// The three differential-oracle families of the fuzzing harness.
//
//   calculus — randomized StepFunction / IntervalSet / ResourceSet terms
//     checked pointwise against the dense referees in reference.hpp, plus
//     canonical-form audits and algebraic round-trips (∪ then \, restrict,
//     clamp, shift, coarsen) and the relative_complement ⇔ dominates pin.
//   kernel   — random workloads where the batched admission pipeline at
//     1–8 lanes must reproduce the sequential controller's decisions bit for
//     bit, plus FeasibilitySnapshot restriction-cache and stale-commit
//     audits and WAL-replay residual reproduction.
//   sim      — greedy runs, explorer searches, model-checker verdicts and
//     cluster executions cross-checked: Θ_expire against an independent
//     tick-replay referee, single-actor satisfy() against brute-force
//     schedule search, concurrent satisfy() against the symbolic engine's
//     exact verdict, concurrent plans validated pointwise, and cluster
//     runs re-executed from the same seed and from audit-log replay.
//   cluster  — the hostile-conditions sweep: a seeded FaultSchedule
//     (crash/restart/partition/heal) and optional closed-loop retry clients
//     over a small cluster, built twice and replayed for byte-identical
//     decision logs and counters; exact message accounting across partition
//     purges; an independent loss referee recomputed from the schedule
//     alone (unrecovered crashes destroy earlier unfinished placements,
//     same-tick bounces don't); decision coverage over originals + retries;
//     surviving placements re-executed through the plan-following Simulator
//     (report invariants validated); and the `fault` DSL round trip.
//   feasibility — the percy two-synthesizer pattern: the symbolic cut-point
//     engine and a static-order sweep (fuzz/exhaustive.hpp) independently
//     decide the same small-window multi-actor instances. A sweep path may
//     never contradict a symbolic kInfeasible, instances in the sweep's
//     exact domain (single-phase, uncapped) must agree outright, every
//     kFeasible witness must replay through the transition rules,
//     search_feasible must match every decided verdict with a
//     deadline-meeting path (ladder-exact), and on tiny instances a bounded
//     exhaustive tick-level scheduler adjudicates. (Full two-sided
//     parity is deliberately *not* demanded outside that domain: static
//     priority orders cannot throttle a multi-phase leader below its
//     water-fill share, nor switch priority between ticks the way
//     rate-capped schedules can require — fuzzing found feasible,
//     witness-validated instances of both kinds.) Divergences are minimized
//     (drop actors, shrink the horizon) before reporting.
//
// Every case is pinned by (run seed, case index) through case_seed(), so a
// divergence report is a reproduction recipe: seed the generator with
// case_seed(seed, index) and replay the same checks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rota::fuzz {

/// One observed disagreement between production code and a referee.
struct Divergence {
  std::string family;      // "calculus" | "kernel" | "sim"
  std::string check;       // short name of the failing check
  std::uint64_t seed = 0;  // the *case* seed (feed straight to Gen)
  std::size_t case_index = 0;
  std::string detail;      // first mismatch, human-readable

  std::string to_string() const;
};

/// Outcome of one oracle run.
struct OracleReport {
  /// Divergences beyond this many are counted but not recorded.
  static constexpr std::size_t kMaxRecorded = 8;

  std::string family;
  std::size_t cases = 0;
  std::uint64_t checks = 0;  // individual comparisons performed
  std::uint64_t divergence_count = 0;
  std::vector<Divergence> divergences;  // first kMaxRecorded

  bool clean() const { return divergence_count == 0; }
  std::string summary() const;
};

/// The seed a given case runs under — deterministic in (run_seed, index) and
/// well-mixed, so each case is independently reproducible.
std::uint64_t case_seed(std::uint64_t run_seed, std::size_t case_index);

OracleReport run_calculus_oracle(std::uint64_t seed, std::size_t cases);
OracleReport run_kernel_oracle(std::uint64_t seed, std::size_t cases);
OracleReport run_sim_oracle(std::uint64_t seed, std::size_t cases);
OracleReport run_cluster_oracle(std::uint64_t seed, std::size_t cases);
OracleReport run_feasibility_oracle(std::uint64_t seed, std::size_t cases);

}  // namespace rota::fuzz
