#include "rota/admission/periodic.hpp"

#include <stdexcept>

#include "rota/plan/kernel.hpp"

namespace rota {

std::vector<DistributedComputation> expand_periodic(const DistributedComputation& task,
                                                    Tick period, std::size_t count) {
  if (period < 1) throw std::invalid_argument("periodic: period must be >= 1");
  if (count < 1) throw std::invalid_argument("periodic: count must be >= 1");
  std::vector<DistributedComputation> out;
  out.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    const Tick shift = static_cast<Tick>(k) * period;
    out.emplace_back(task.name() + "#" + std::to_string(k), task.actors(),
                     task.earliest_start() + shift, task.deadline() + shift);
  }
  return out;
}

PeriodicAdmission admit_periodic(RotaAdmissionController& controller,
                                 const DistributedComputation& task, Tick period,
                                 std::size_t count, Tick now) {
  // All-or-nothing needs rollback, and the computation-leave rule only
  // permits releasing computations that have not started — so the first
  // release must still be in the future when a later instance fails.
  if (task.earliest_start() <= now) {
    throw std::invalid_argument(
        "admit_periodic: the series must start strictly after `now` so that "
        "rollback (the leave rule) stays legal");
  }
  PeriodicAdmission result;
  const auto instances = expand_periodic(task, period, count);
  std::vector<std::string> admitted_names;
  for (std::size_t k = 0; k < instances.size(); ++k) {
    // Instance by instance through the sequential kernel path.
    AdmissionDecision d = controller.request(
        make_concurrent_requirement(controller.phi(), instances[k]), now);
    if (!d.accepted) {
      result.failed_instance = k;
      result.reason = d.reason;
      // Roll back: none of the earlier instances has started (their windows
      // lie in the future of `now` by construction when s > now; if the
      // first window already began, release will throw — surface that).
      for (auto it = admitted_names.rbegin(); it != admitted_names.rend(); ++it) {
        controller.release(*it);
      }
      result.plans.clear();
      return result;
    }
    admitted_names.push_back(instances[k].name());
    result.plans.push_back(std::move(*d.plan));
  }
  result.accepted = true;
  return result;
}

std::size_t sustainable_instances(const RotaAdmissionController& controller,
                                  const DistributedComputation& task, Tick period,
                                  std::size_t max_count, Tick now) {
  // Pure speculation: chain what-if snapshots (each minus the previous
  // instance's plan) instead of probing a copied controller — the caller's
  // ledger is never touched. One capture of the series hull, on the shards
  // the instances demand, covers every instance.
  const auto instances = expand_periodic(task, period, std::max<std::size_t>(1, max_count));
  std::vector<ConcurrentRequirement> series;
  series.reserve(instances.size());
  TimeInterval hull;
  ShardMask mask = 0;
  for (const auto& instance : instances) {
    series.push_back(make_concurrent_requirement(controller.phi(), instance));
    hull = hull.hull_with(effective_window(series.back(), now));
    mask |= touched_shard_mask(series.back());
  }
  FeasibilitySnapshot snapshot =
      FeasibilitySnapshot::capture(controller.ledger(), hull, mask);
  std::size_t sustained = 0;
  for (const ConcurrentRequirement& rho : series) {
    if (sustained >= max_count) break;
    PlanResult result = controller.kernel().speculate(rho, now, snapshot);
    if (!result.feasible()) break;
    auto next = snapshot.minus(*result.plan);
    if (!next) break;  // defensive: a feasible plan is covered by the view
    snapshot = std::move(*next);
    ++sustained;
  }
  return sustained;
}

}  // namespace rota
