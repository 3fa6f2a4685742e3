// Path exploration: generating branches of the evolution tree.
//
// Definition 2's tree of all possible evolutions is far too large to build;
// what the theorems need is (a) witness paths — produced by running a
// priority-ordered maximal-consumption schedule through the transition rules
// — and (b) an exact feasibility decision with a witness: search_feasible
// climbs one ladder, cheap greedy orders first, then the symbolic cut-point
// engine (rota/logic/symbolic/feasibility.hpp).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "rota/logic/path.hpp"

namespace rota {

/// How contended supply is ordered among unfinished commitments each tick.
enum class PriorityOrder {
  kFcfs,          // commitment (arrival) order
  kEdf,           // earliest deadline first
  kLeastLaxity,   // smallest (deadline − now − remaining work) first
  kProportional,  // fair share: each tick's rate split evenly among claimants
};

std::string priority_name(PriorityOrder order);

struct RunResult {
  ComputationPath path;
  bool all_met = false;        // every commitment finished by its deadline
  Tick finished_at = 0;        // tick when the last commitment finished (or horizon)
};

/// Runs the general transition rule with maximal consumption under the given
/// priority order until all commitments finish or `horizon` is reached.
/// Every tick consumes as much of each type as the order allows; unclaimed
/// supply expires, exactly as in the paper's general rule.
RunResult run_greedy(SystemState start, Tick horizon, PriorityOrder order);

/// Fair-share (water-filling) consumption labels for one tick: each type's
/// capacity is split as evenly as integer rates allow among the listed
/// commitments that currently want it, honouring remaining demand and rate
/// caps. Types missing from `capacity_left` are initialized from the state's
/// supply at the current tick; present entries are respected (callers may
/// pre-subtract reservations). Used by PriorityOrder::kProportional and by
/// the simulator's fair-share discipline.
std::vector<ConsumptionLabel> water_fill_labels(
    const SystemState& state, const std::vector<std::size_t>& participants,
    std::map<LocatedType, Rate>& capacity_left);

/// The feasibility ladder: the EDF, least-laxity and FCFS greedy orders,
/// then the symbolic cut-point engine under its default options. Returns a
/// deadline-meeting path, or nullopt when the instance is infeasible or the
/// engine could not decide it (kUnknown: not shown feasible).
std::optional<ComputationPath> search_feasible(const SystemState& start, Tick horizon);

}  // namespace rota
