#include "rota/admission/negotiation.hpp"

#include <algorithm>
#include <stdexcept>

namespace rota {

namespace {

/// One candidate-window probe: a kernel speculation of `rho` clipped to
/// `window`, against the search's one snapshot.
bool probe(const FeasibilitySnapshot& snapshot, const PlanningKernel& kernel,
           const ConcurrentRequirement& rho, const TimeInterval& window) {
  return kernel.speculate(clip_requirement(rho, window), window.start(), snapshot)
      .feasible();
}

}  // namespace

std::optional<Tick> earliest_feasible_deadline(const FeasibilitySnapshot& snapshot,
                                               const ConcurrentRequirement& rho,
                                               Tick latest,
                                               const PlanningKernel& kernel) {
  const Tick start = rho.window().start();
  if (latest <= start) {
    throw std::invalid_argument("earliest_feasible_deadline: latest must follow s");
  }
  // ASAP feasibility is monotone in d: a plan for d also works for d' > d.
  if (!probe(snapshot, kernel, rho, TimeInterval(start, latest))) return std::nullopt;
  Tick lo = start + 1, hi = latest;  // invariant: hi is feasible
  while (lo < hi) {
    const Tick mid = lo + (hi - lo) / 2;
    if (probe(snapshot, kernel, rho, TimeInterval(start, mid))) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return hi;
}

std::optional<Tick> earliest_feasible_deadline(const ResourceSet& available,
                                               const ConcurrentRequirement& rho,
                                               Tick latest, PlanningPolicy policy) {
  // Every probe window lies in [s, latest): plan against that range only.
  const ResourceSet range =
      available.restricted(TimeInterval(rho.window().start(), latest));
  return earliest_feasible_deadline(FeasibilitySnapshot::over(range), rho, latest,
                                    PlanningKernel(policy));
}

std::optional<Tick> latest_feasible_start(const FeasibilitySnapshot& snapshot,
                                          const ConcurrentRequirement& rho,
                                          const PlanningKernel& kernel) {
  const Tick deadline = rho.window().end();
  auto feasible_from = [&](Tick s) {
    return probe(snapshot, kernel, rho, TimeInterval(s, deadline));
  };
  if (!feasible_from(rho.window().start())) return std::nullopt;
  // Shrinking the window from the left is monotone the other way: if start s
  // fails, every later start fails too.
  Tick lo = rho.window().start(), hi = deadline - 1;  // invariant: lo is feasible
  while (lo < hi) {
    const Tick mid = lo + (hi - lo + 1) / 2;
    if (feasible_from(mid)) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

std::optional<Tick> latest_feasible_start(const ResourceSet& available,
                                          const ConcurrentRequirement& rho,
                                          PlanningPolicy policy) {
  const ResourceSet range = available.restricted(rho.window());
  return latest_feasible_start(FeasibilitySnapshot::over(range), rho,
                               PlanningKernel(policy));
}

CounterOffer request_with_counter_offer(RotaAdmissionController& controller,
                                        const ConcurrentRequirement& rho, Tick now,
                                        Tick max_deadline) {
  CounterOffer offer;
  offer.decision = controller.request(rho, now);
  if (offer.decision.accepted) return offer;
  if (max_deadline <= rho.window().end()) return offer;  // nothing to offer

  // Probe the residual for the smallest workable extension. The probe window
  // starts where the kernel would clip: max(s, now). One capture of that
  // window, on the requirement's shards, serves every candidate the search
  // plans.
  const Tick start = std::max(rho.window().start(), now);
  if (start >= max_deadline) return offer;
  const TimeInterval window(start, max_deadline);
  const ConcurrentRequirement probe_rho = clip_requirement(rho, window);
  const FeasibilitySnapshot snapshot = FeasibilitySnapshot::capture(
      controller.ledger(), window, touched_shard_mask(probe_rho));
  auto d = earliest_feasible_deadline(snapshot, probe_rho, max_deadline,
                                      controller.kernel());
  // Only offer genuine extensions (a d inside the original window would
  // contradict the rejection; guard against boundary effects).
  if (d && *d > rho.window().end()) offer.suggested_deadline = d;
  return offer;
}

std::vector<ConcurrentPlan> admissible_copies(const ResourceSet& available,
                                              const ConcurrentRequirement& rho,
                                              std::size_t max_copies,
                                              PlanningPolicy policy) {
  const PlanningKernel kernel(policy);
  std::vector<ConcurrentPlan> plans;
  FeasibilitySnapshot snapshot = FeasibilitySnapshot::over(available);
  for (std::size_t i = 0; i < max_copies; ++i) {
    PlanResult result = kernel.speculate(rho, rho.window().start(), snapshot);
    if (!result.feasible()) break;
    auto next = snapshot.minus(*result.plan);
    if (!next) {
      throw std::logic_error("admissible_copies: plan exceeded residual");
    }
    snapshot = std::move(*next);
    plans.push_back(std::move(*result.plan));
  }
  return plans;
}

}  // namespace rota
