#include "rota/plan/snapshot.hpp"

#include <utility>

#include "rota/logic/planner.hpp"
#include "rota/obs/obs.hpp"

namespace rota {

FeasibilitySnapshot FeasibilitySnapshot::stamped(const CommitmentLedger& ledger) {
  FeasibilitySnapshot snap;
  snap.revision_ = ledger.revision();
  snap.shard_revisions_ = ledger.shard_revisions();
  snap.has_shard_stamps_ = true;
  snap.now_ = ledger.now();
  snap.lapsed_before_ = ledger.lapsed_before();
  return snap;
}

FeasibilitySnapshot FeasibilitySnapshot::capture(const CommitmentLedger& ledger) {
  ROTA_OBS_SPAN("plan.snapshot");
  FeasibilitySnapshot snap = stamped(ledger);
  snap.owned_ = ledger.residual();
  return snap;
}

FeasibilitySnapshot FeasibilitySnapshot::capture(const CommitmentLedger& ledger,
                                                 const TimeInterval& window,
                                                 ShardMask mask) {
  ROTA_OBS_SPAN("plan.snapshot");
  FeasibilitySnapshot snap = stamped(ledger);
  if (window.empty()) return snap;
  snap.owned_ = ledger.residual().restricted_if(window, [mask](const LocatedType& t) {
    return (mask & (static_cast<ShardMask>(1) << shard_of(t))) != 0;
  });
  return snap;
}

FeasibilitySnapshot FeasibilitySnapshot::over(const ResourceSet& supply, Tick now) {
  FeasibilitySnapshot snap;
  snap.borrowed_ = &supply;
  snap.now_ = now;
  return snap;
}

std::optional<FeasibilitySnapshot> FeasibilitySnapshot::minus(
    const ConcurrentPlan& plan) const {
  auto next = view().relative_complement(plan.usage_as_resources());
  if (!next) return std::nullopt;
  FeasibilitySnapshot snap;
  snap.owned_ = std::move(*next);
  snap.now_ = now_;
  snap.lapsed_before_ = lapsed_before_;
  return snap;
}

}  // namespace rota
