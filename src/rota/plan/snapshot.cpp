#include "rota/plan/snapshot.hpp"

#include <mutex>
#include <utility>
#include <vector>

#include "rota/admission/ledger.hpp"
#include "rota/logic/planner.hpp"
#include "rota/obs/obs.hpp"

namespace rota {

/// Memoized restricted views. Entries are kept behind unique_ptr so the
/// references handed out stay valid while the vector grows.
struct FeasibilitySnapshot::Cache {
  struct Entry {
    TimeInterval window;
    ResourceSet view;
  };
  std::mutex mutex;
  std::vector<std::unique_ptr<Entry>> entries;
};

FeasibilitySnapshot::FeasibilitySnapshot() : cache_(std::make_shared<Cache>()) {}

FeasibilitySnapshot FeasibilitySnapshot::capture(const CommitmentLedger& ledger) {
  FeasibilitySnapshot snap;
  snap.borrowed_ = &ledger.residual();
  snap.revision_ = ledger.revision();
  snap.shard_revisions_ = ledger.shard_revisions();
  snap.has_shard_stamps_ = true;
  snap.now_ = ledger.now();
  snap.lapsed_before_ = ledger.lapsed_before();
  snap.pre_restricted_ = false;
  return snap;
}

FeasibilitySnapshot FeasibilitySnapshot::capture(const CommitmentLedger& ledger,
                                                 const TimeInterval& hull) {
  ROTA_OBS_SPAN("plan.snapshot");
  FeasibilitySnapshot snap;
  if (!hull.empty()) snap.owned_ = ledger.residual().restricted(hull);
  snap.revision_ = ledger.revision();
  snap.shard_revisions_ = ledger.shard_revisions();
  snap.has_shard_stamps_ = true;
  snap.now_ = ledger.now();
  snap.lapsed_before_ = ledger.lapsed_before();
  snap.pre_restricted_ = true;
  return snap;
}

FeasibilitySnapshot FeasibilitySnapshot::capture(const CommitmentLedger& ledger,
                                                 const TimeInterval& hull,
                                                 ShardMask mask) {
  ROTA_OBS_SPAN("plan.snapshot");
  FeasibilitySnapshot snap;
  if (!hull.empty()) {
    snap.owned_ = ledger.residual().restricted_if(hull, [mask](const LocatedType& t) {
      return (mask & (static_cast<ShardMask>(1) << shard_of(t))) != 0;
    });
  }
  snap.revision_ = ledger.revision();
  snap.shard_revisions_ = ledger.shard_revisions();
  snap.has_shard_stamps_ = true;
  snap.now_ = ledger.now();
  snap.lapsed_before_ = ledger.lapsed_before();
  snap.pre_restricted_ = true;
  return snap;
}

FeasibilitySnapshot FeasibilitySnapshot::over(const ResourceSet& supply, Tick now) {
  FeasibilitySnapshot snap;
  snap.borrowed_ = &supply;
  snap.revision_ = kDetachedRevision;
  snap.now_ = now;
  snap.pre_restricted_ = true;
  return snap;
}

std::optional<FeasibilitySnapshot> FeasibilitySnapshot::minus(
    const ConcurrentPlan& plan) const {
  auto next = view().relative_complement(plan.usage_as_resources());
  if (!next) return std::nullopt;
  FeasibilitySnapshot snap;
  snap.owned_ = std::move(*next);
  snap.revision_ = kDetachedRevision;
  snap.now_ = now_;
  snap.lapsed_before_ = lapsed_before_;
  snap.pre_restricted_ = pre_restricted_;
  return snap;
}

const ResourceSet& FeasibilitySnapshot::restricted(const TimeInterval& window) const {
  Cache& cache = *cache_;
  std::lock_guard<std::mutex> lock(cache.mutex);
  // Containment suffices: planning never reads availability outside the
  // requirement window, so a wider cached view plans identically.
  for (const auto& entry : cache.entries) {
    if (entry->window.start() <= window.start() &&
        window.end() <= entry->window.end()) {
      return entry->view;
    }
  }
  auto entry = std::make_unique<Cache::Entry>();
  entry->window = window;
  entry->view = view().restricted(window);
  cache.entries.push_back(std::move(entry));
  return cache.entries.back()->view;
}

}  // namespace rota
