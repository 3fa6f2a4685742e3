// Symbolic cut-point feasibility engine for multi-actor satisfy(ρ(Λ,s,d)).
//
// Greedy priority orders decide multi-actor accommodation only when one of
// them happens to find a schedule, and a sweep over static priority orders
// is factorial in the number of commitments. This engine decides the
// question exactly by searching over *cut-points* instead of schedules:
//
//   For each unfinished commitment, the pending phases must complete in
//   order inside the commitment's window. Fix the boundary ticks
//   c_0 ≤ c_1 ≤ … ≤ c_m (c_0 = release, c_m = deadline); phase i then
//   consumes only within [c_i, c_{i+1}). Once every commitment's boundaries
//   are fixed, the remaining question — can per-tick supply cover every
//   phase's demand under the per-commitment rate caps? — decomposes per
//   located type into a transportation problem (supply ticks → phases),
//   answered exactly by a small integral max-flow. The search over cut
//   assignments is a DFS with interval propagation: ASAP/ALAP bounds from
//   earliest_cover/latest_cover_start prune each commitment's boundary
//   domains, and a relaxed flow check (unassigned commitments keep their
//   full boundary hulls) prunes partial assignments. Single-phase
//   commitments contribute *no* free cut-points, so the common case — n
//   single-phase actors that a static-order sweep needs n! runs for — is a
//   single polynomial flow check.
//
// Decision class: one phase per actor per tick, i.e. the schedules the
// greedy explorer and the planner emit. (SystemState::advance would
// technically allow a second label to land in the *next* phase within one
// tick after a mid-tick promotion; neither ever emits such schedules, and
// the feasibility fuzz family pins this engine against a static-order sweep
// and an exhaustive tick-level referee, so that latent extra freedom is
// deliberately out of scope.) Witnesses are per-tick label lists that
// replay through SystemState::advance, so every kFeasible verdict is
// checkable.
//
// Verdicts are exact (kFeasible / kInfeasible) unless the node budget or the
// tick ceiling is exceeded, in which case kUnknown means "not shown
// feasible": search_feasible, the model checker and the admission kernel all
// treat it as a rejection.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "rota/logic/path.hpp"
#include "rota/logic/planner.hpp"

namespace rota {

enum class FeasibilityVerdict { kFeasible, kInfeasible, kUnknown };

std::string feasibility_verdict_name(FeasibilityVerdict verdict);

struct FeasibilityOptions {
  /// Cut-assignment DFS nodes (boundary values tried) before giving up with
  /// kUnknown. Single-phase-only instances never spend a node.
  std::uint64_t node_budget = 50'000;
  /// Widest window (max deadline − now, in ticks) the encoding will attempt;
  /// wider instances return kUnknown immediately.
  Tick max_ticks = 512;
};

struct FeasibilityStats {
  std::uint64_t nodes = 0;        // boundary values enumerated by the DFS
  std::uint64_t flow_checks = 0;  // transportation relaxations solved
  std::size_t free_cuts = 0;      // interior boundaries searched over
  Tick ticks = 0;                 // window width of the encoding
};

struct FeasibilityResult {
  FeasibilityVerdict verdict = FeasibilityVerdict::kUnknown;
  /// kFeasible only: labels to apply at now, now+1, … (possibly empty lists
  /// for idle ticks). Replays through SystemState::advance.
  std::vector<std::vector<ConsumptionLabel>> schedule;
  /// kFeasible only: per input commitment, the chosen boundaries
  /// c_0 … c_m (empty for already-finished commitments).
  std::vector<std::vector<Tick>> boundaries;
  FeasibilityStats stats;

  bool feasible() const { return verdict == FeasibilityVerdict::kFeasible; }
};

/// Decides whether some label sequence from `start` finishes every commitment
/// by its deadline, consuming nothing at or beyond `horizon`.
FeasibilityResult decide_feasibility(const SystemState& start, Tick horizon,
                                     const FeasibilityOptions& options = {});

/// Replays a kFeasible result from `start`, returning the witness path, or
/// nullopt if the schedule does not validate (which would be an engine bug —
/// the fuzz harness checks exactly this).
std::optional<ComputationPath> realize_feasibility(const SystemState& start,
                                                   const FeasibilityResult& result);

/// decide + realize in one step: a witness path, or nullopt unless feasible.
std::optional<ComputationPath> feasibility_witness_path(
    const SystemState& start, Tick horizon, const FeasibilityOptions& options = {});

/// Admission-probe adapter: accommodates `rho` against `available` at `now`
/// and, when the engine proves feasibility, converts the witness schedule
/// into a ConcurrentPlan (per-actor usage step functions + cut points) that
/// a CommitmentLedger can admit. nullopt on kInfeasible *and* kUnknown.
std::optional<ConcurrentPlan> symbolic_concurrent_plan(
    const ResourceSet& available, const ConcurrentRequirement& rho, Tick now,
    const FeasibilityOptions& options = {});

}  // namespace rota
