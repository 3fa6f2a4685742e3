// FeasibilitySnapshot: one immutable, revision-stamped view of the residual
// supply — the input side of the planning kernel.
//
// Theorem 4 admits a newcomer using only Θ inside its own window
// (max(s, t), d). A capture of a live ledger therefore copies just that part
// of the residual and owns it, so nothing a later ledger write does can
// reach a speculation running against the snapshot:
//
//   * capture(ledger, window, mask) — the admission capture. Owns the
//     residual restricted to `window`, keeping only types whose shard is in
//     `mask`. The sequential decide(), the admission round (over its
//     request hull; the batch controller, the daemon and its peer claims
//     all decide in such rounds), cluster probes, negotiation and periodic
//     series all plan against one of these.
//   * capture(ledger)        — an owned copy of the whole residual, for tests
//     and fuzz oracles that speculate anything against one snapshot.
//   * over(supply)           — borrows an arbitrary availability (gossiped
//     digests, baseline probes, negotiation what-ifs). Speculation-only: its
//     revision never matches a live ledger, so commits are refused as stale.
//     It is the one snapshot that aliases its source, which must outlive it.
//   * minus(plan)            — a derived what-if snapshot with one plan's
//     usage subtracted; chains speculative admissions (sustainable periodic
//     instances, admissible copies) without copying a controller.
//
// Speculation plans against view() as it stands: the planner reads
// availability only inside the requirement window and only for demanded
// types, so any view covering both yields bit-identical plans.
//
// A capture also freezes the ledger's revision, its per-shard revisions and
// its lapse point (lapsed_before()). The stamps turn "the ledger moved since
// this snapshot" into a checkable property of every result (see
// PlanningKernel::commit). Expiry bumps no revision, because it changes
// nothing at or after the lapse point; what it does change — the residual
// before it — only matters to a request whose window starts behind the
// clock, and the kernel refuses such a result as stale once the lapse point
// has moved past its snapshot's.
#pragma once

#include <cstdint>
#include <optional>

#include "rota/admission/ledger.hpp"
#include "rota/admission/shard.hpp"
#include "rota/resource/resource_set.hpp"

namespace rota {

struct ConcurrentPlan;

class FeasibilitySnapshot {
 public:
  /// Revision stamp of speculation-only snapshots (over(), minus()): never
  /// equal to any live ledger revision, so commits read as stale.
  static constexpr std::uint64_t kDetachedRevision =
      ~static_cast<std::uint64_t>(0);

  /// Whole-residual snapshot at the ledger's current revision: an owned
  /// copy, so it stays valid across later ledger writes.
  static FeasibilitySnapshot capture(const CommitmentLedger& ledger);

  /// Window- and shard-restricted snapshot: owns the residual restricted to
  /// `window`, keeping only types whose shard is in `mask`. `window` must
  /// cover the effective window, and `mask` the shard footprint, of every
  /// requirement later speculated against this snapshot.
  static FeasibilitySnapshot capture(const CommitmentLedger& ledger,
                                     const TimeInterval& window, ShardMask mask);

  /// Snapshot over a bare availability (digest, baseline supply, what-if).
  /// Borrows `supply`; speculation-only (kDetachedRevision).
  static FeasibilitySnapshot over(const ResourceSet& supply, Tick now = 0);

  /// Derived what-if: this snapshot's view minus `plan`'s usage. nullopt
  /// when the plan is not covered. Speculation-only.
  std::optional<FeasibilitySnapshot> minus(const ConcurrentPlan& plan) const;

  /// Ledger revision this snapshot froze (kDetachedRevision when detached).
  std::uint64_t revision() const { return revision_; }

  /// True when this snapshot carries per-shard revision stamps (captures of
  /// a live ledger do; over()/minus() views do not).
  bool has_shard_stamps() const { return has_shard_stamps_; }

  /// Frozen per-shard revisions (valid only when has_shard_stamps()).
  std::uint64_t shard_revision(std::size_t s) const { return shard_revisions_[s]; }

  /// Compressed stamp of the masked shards at capture time (shard.hpp).
  std::uint64_t shard_stamp(ShardMask mask) const {
    return rota::shard_stamp(shard_revisions_, mask);
  }

  /// Ledger clock (or caller-supplied `now`) at capture time.
  Tick now() const { return now_; }

  /// The ledger's lapse point at capture time (kNothingLapsed when
  /// detached): the view holds nothing before it.
  Tick lapsed_before() const { return lapsed_before_; }

  /// The availability speculation plans against.
  const ResourceSet& view() const { return borrowed_ ? *borrowed_ : owned_; }

 private:
  /// Stamps (revision, shard revisions, clock, lapse point) of `ledger`.
  static FeasibilitySnapshot stamped(const CommitmentLedger& ledger);

  const ResourceSet* borrowed_ = nullptr;  // set only by over()
  ResourceSet owned_;
  std::uint64_t revision_ = kDetachedRevision;
  ShardRevisions shard_revisions_{};       // frozen when has_shard_stamps_
  Tick now_ = 0;
  Tick lapsed_before_ = CommitmentLedger::kNothingLapsed;
  bool has_shard_stamps_ = false;
};

}  // namespace rota
