// The feasibility fuzz family's two brute-force synthesizers, held against
// the symbolic cut-point engine.
//
// Static-order sweep: every priority permutation of the actors, each run
// through the greedy explorer. Factorial, so it refuses above
// kMaxSweepActors; exact only on single-phase uncapped instances (capped or
// multi-phase schedules can need the priority order to change mid-run).
//
// Bounded exhaustive tick-level scheduling: the ground-truth referee that
// adjudicates the tiniest instances. The search enumerates, per tick, every
// *maximal* split of each type's available rate across the commitments that
// want it (maximal: the tick's grant sums to min(availability, total
// appetite)). Giving a commitment more of a type it still wants never hurts —
// a state that consumed more dominates one that consumed less and can mimic
// any continuation — so restricting to maximal splits preserves the
// feasibility verdict while taming the branching factor. States are memoized; when the node budget
// runs out the answer is nullopt (undecided) rather than a guess.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "rota/computation/requirement.hpp"
#include "rota/logic/path.hpp"

namespace rota::fuzz {

/// Most actors the static-order sweep enumerates (6! = 720 greedy runs).
inline constexpr std::size_t kMaxSweepActors = 6;

struct SweepResult {
  /// The first deadline-meeting order's path, if any. Its commitment indices
  /// follow that order, not the input order.
  std::optional<ComputationPath> path;
  std::size_t permutations = 0;  // orders tried, the winner included
};

/// Accommodates `actors` over `supply` at tick 0 (one computation with window
/// [0, horizon)) in each lexicographic permutation of their indices and runs
/// run_greedy(kFcfs) until one order meets every deadline. nullopt — refused,
/// nothing run — above kMaxSweepActors actors.
std::optional<SweepResult> static_order_sweep(
    const ResourceSet& supply, const std::vector<ComplexRequirement>& actors,
    Tick horizon);

/// True/false iff some label sequence from `start` finishes every commitment
/// by its deadline (consuming nothing at or past `horizon`); nullopt when the
/// instance is too large for the budget. Intended for referee duty only:
/// instances with more than 3 commitments are declined immediately.
std::optional<bool> exhaustive_feasible(const SystemState& start, Tick horizon,
                                        std::uint64_t node_budget);

}  // namespace rota::fuzz
