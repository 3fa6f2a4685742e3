// Deadline negotiation: turning yes/no admission into counter-offers.
//
// ROTA's verdicts are binary — (Λ, s, d) fits or it does not. A practical
// admission service wants to answer the follow-ups: *what deadline could you
// promise?*, *when could you start?*, *how many copies of this would fit?*
// All three reduce to monotone searches over the planning kernel: enlarging
// the window (later d, or earlier s) never hurts ASAP feasibility, so binary
// search applies. Every probe is a PlanningKernel::speculate against one
// FeasibilitySnapshot whose view covers the search's whole probe range, so a
// whole search pays for a single capture, not one per candidate window.
#pragma once

#include <optional>

#include "rota/admission/controller.hpp"
#include "rota/computation/requirement.hpp"
#include "rota/plan/kernel.hpp"

namespace rota {

/// The smallest deadline d' >= s+1 such that (Λ, s, d') is feasible against
/// the snapshot, probing no further than `latest`. The requirement's own
/// deadline is ignored; phases and earliest start are kept. nullopt when
/// even d' = latest fails.
std::optional<Tick> earliest_feasible_deadline(const FeasibilitySnapshot& snapshot,
                                               const ConcurrentRequirement& rho,
                                               Tick latest,
                                               const PlanningKernel& kernel);

/// Convenience overload over a bare availability.
std::optional<Tick> earliest_feasible_deadline(const ResourceSet& available,
                                               const ConcurrentRequirement& rho,
                                               Tick latest,
                                               PlanningPolicy policy = PlanningPolicy::kAsap);

/// The latest start s' (>= the requirement's own s) such that the computation
/// still fits before its deadline — how long admission can be deferred, e.g.
/// while waiting for a cheaper price window. nullopt when even the original
/// start fails.
std::optional<Tick> latest_feasible_start(const FeasibilitySnapshot& snapshot,
                                          const ConcurrentRequirement& rho,
                                          const PlanningKernel& kernel);

/// Convenience overload over a bare availability.
std::optional<Tick> latest_feasible_start(const ResourceSet& available,
                                          const ConcurrentRequirement& rho,
                                          PlanningPolicy policy = PlanningPolicy::kAsap);

/// How many identical copies of the computation fit side by side (each
/// speculated against the what-if snapshot left by the previous ones —
/// FeasibilitySnapshot::minus), capped at `max_copies`. Returns the plans so
/// the caller can commit them.
std::vector<ConcurrentPlan> admissible_copies(const ResourceSet& available,
                                              const ConcurrentRequirement& rho,
                                              std::size_t max_copies,
                                              PlanningPolicy policy = PlanningPolicy::kAsap);

/// A rejection with a counter-offer attached.
struct CounterOffer {
  AdmissionDecision decision;              // verdict for the requested window
  std::optional<Tick> suggested_deadline;  // smallest workable d, if any
};

/// Requests (Λ, s, d); on rejection, probes the controller's residual for the
/// smallest deadline extension (up to `max_deadline`) that *would* fit and
/// attaches it as a counter-offer. The caller decides whether to accept the
/// offer by re-requesting with the extended window — nothing is committed
/// for a rejected request.
CounterOffer request_with_counter_offer(RotaAdmissionController& controller,
                                        const ConcurrentRequirement& rho, Tick now,
                                        Tick max_deadline);

}  // namespace rota
