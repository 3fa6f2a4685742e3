// The commitment ledger: online bookkeeping behind Theorem 4.
//
// The ledger tracks total supply and the *residual* — supply minus the
// consumption plans of every admitted computation. The residual is exactly
// Θ_expire of the committed path (what would expire unused), so "plan the
// newcomer against the residual, subtract its plan on success" is the online
// form of Theorem 4's accommodation condition: existing commitments are
// untouched by construction.
//
// The ledger's state is the paper's (Θ, ρ, t): supply, residual and a clock.
// advance_to() only moves the clock; expire() applies the expiration
// transition, dropping supply and residual before now() and recording that
// point as lapsed_before(). From then on the ledger has forgotten the past:
// join() drops joined supply before the lapse point, and a planner reading
// the residual there sees nothing. Expiry bumps no revision — a speculation
// whose window lies at or after the lapse point reads exactly what it read
// before — so the planning kernel checks the lapse point separately (see
// PlanningKernel::commit). Controllers expire after every decision; a ledger
// nobody expires (the admission service's) keeps its whole history.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "rota/admission/shard.hpp"
#include "rota/logic/planner.hpp"
#include "rota/resource/resource_set.hpp"

namespace rota {

struct AdmittedRecord {
  std::string name;
  TimeInterval window;
  ConcurrentPlan plan;
  Tick admitted_at = 0;
};

class CommitmentLedger {
 public:
  /// lapsed_before() of a ledger that has never expired anything.
  static constexpr Tick kNothingLapsed = std::numeric_limits<Tick>::min();

  CommitmentLedger() = default;
  explicit CommitmentLedger(ResourceSet supply, Tick now = 0)
      : supply_(supply), residual_(std::move(supply)), now_(now) {}

  const ResourceSet& supply() const { return supply_; }

  /// The cached residual, maintained incrementally across commits — planning
  /// reads this directly instead of re-deriving supply minus all admitted
  /// plans on every request.
  const ResourceSet& residual() const { return residual_; }

  /// Bumped whenever the residual changes (join/admit/release/carve/merge;
  /// not expire, which only forgets the past). Optimistic readers — the
  /// batched admission pipeline — snapshot the revision together with
  /// residual() and revalidate against it at commit.
  std::uint64_t revision() const { return revision_; }

  /// Per-location-shard revision counters (see shard.hpp). A mutation bumps
  /// exactly the shards of the types it changed, so an optimistic reader that
  /// recorded the stamp of its demand's shards can revalidate against those
  /// alone: commits on other locations do not invalidate it.
  const ShardRevisions& shard_revisions() const { return shard_revisions_; }
  std::uint64_t shard_revision(std::size_t s) const { return shard_revisions_[s]; }
  /// Compressed stamp of the masked shards (see shard_stamp in shard.hpp).
  std::uint64_t shard_stamp(ShardMask mask) const {
    return rota::shard_stamp(shard_revisions_, mask);
  }

  Tick now() const { return now_; }
  /// Supply and residual hold nothing before this tick (kNothingLapsed until
  /// the first expire()).
  Tick lapsed_before() const { return lapsed_before_; }
  const std::vector<AdmittedRecord>& admitted() const { return admitted_; }

  /// Resource acquisition: new supply is immediately part of the residual.
  /// Joined supply before lapsed_before() has already lapsed and is dropped.
  void join(const ResourceSet& joined);

  /// Clock advance. Monotonic; throws on retrograde time. Forgets nothing:
  /// see expire().
  void advance_to(Tick t);

  /// The expiration transition: supply left unused before now() lapses.
  /// Drops it from supply and residual and moves lapsed_before() to now().
  /// Idempotent; bumps no revision.
  void expire();

  /// Records an admission whose plan was computed against residual();
  /// subtracts the plan's usage. Returns false (ledger unchanged) if the
  /// plan does not fit the residual — callers treat that as a rejection.
  bool admit(const std::string& name, const TimeInterval& window,
             const ConcurrentPlan& plan);

  /// Computation leave rule: gives a not-yet-started computation's reserved
  /// supply back to the residual. Throws if it has started (now >= s);
  /// returns false if unknown.
  bool release(const std::string& name);

  /// Fraction of supply of `type` within `window` that is already planned
  /// for (1 − residual/supply); 0 when there is no supply.
  double utilization(const LocatedType& type, const TimeInterval& window) const;

  /// Permanently removes `slice` from both supply and residual — the
  /// resources leave this ledger's authority (CyberOrgs isolation). Returns
  /// false (ledger unchanged) if the residual does not cover the slice:
  /// already-committed resources cannot be given away.
  bool carve(const ResourceSet& slice);

  /// Absorbs another ledger: supply, residual and admitted records merge
  /// (CyberOrgs assimilation), the clock and the lapse point move to the
  /// later of the two, and merged supply before that lapse point is dropped.
  /// The other ledger is left empty.
  void merge(CommitmentLedger&& other);

  std::size_t admitted_count() const { return admitted_.size(); }

 private:
  /// Bumps the global revision plus the shards of every type in `touched`.
  void bump_revision(const ResourceSet& touched);
  /// Bumps the global revision plus every shard (structural operations whose
  /// footprint is not worth computing: merge).
  void bump_revision_all();
  /// Drops supply and residual before lapsed_before_ (no-op until the first
  /// expire()).
  void drop_lapsed();

  ResourceSet supply_;
  ResourceSet residual_;
  std::vector<AdmittedRecord> admitted_;
  Tick now_ = 0;
  Tick lapsed_before_ = kNothingLapsed;
  std::uint64_t revision_ = 0;
  ShardRevisions shard_revisions_{};
};

}  // namespace rota
