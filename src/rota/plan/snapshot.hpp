// FeasibilitySnapshot: one immutable, revision-stamped view of the residual
// supply — the input side of the planning kernel.
//
// Every admission surface used to freeze its own copy of "what is left"
// before reasoning about a newcomer: the sequential controller restricted
// the residual per request, the batch pipeline built a hull view per round,
// negotiation restricted per probe, cluster probes per message. The snapshot
// unifies those freezes behind one type:
//
//   * capture(ledger)        — borrows the ledger's cached residual at its
//     current revision. Planning restricts per request (through the cache),
//     exactly as the sequential controller always has.
//   * capture(ledger, hull)  — owns one hull-restricted copy of the
//     residual. Planning reads it directly: the planner only ever looks at
//     availability inside a requirement's window, so any view whose window
//     covers the request hull yields bit-identical plans at one restriction
//     per round instead of one per request (the batch pipeline's
//     amortization, now shared).
//   * over(supply)           — borrows an arbitrary availability (gossiped
//     digests, baseline probes, negotiation what-ifs). Speculation-only: its
//     revision never matches a live ledger, so commits are refused as stale.
//   * minus(plan)            — a derived what-if snapshot with one plan's
//     usage subtracted; chains speculative admissions (periodic probes,
//     admissible copies) without copying a controller.
//
// Borrowing snapshots alias the source set; they must not outlive it, and a
// ledger commit invalidates what capture(ledger) borrowed — the revision
// stamp turns that staleness into a checkable property instead of a bug.
//
// A capture also freezes the ledger's lapse point (lapsed_before()). Expiry
// bumps no revision, because it changes nothing at or after the lapse point;
// what it does change — the residual before it — only matters to a request
// whose window starts behind the clock, and the kernel refuses such a result
// as stale once the lapse point has moved past its snapshot's (see
// PlanningKernel::commit).
//
// The restriction cache memoizes restricted views by window, serving any
// later window a cached view *contains* (containment is enough: planning
// never reads outside the requirement window). A deadline search that probes
// dozens of candidate windows against one snapshot pays for one restriction,
// not one per candidate. The cache is internally locked, so a snapshot is
// safely shared across planning lanes.
#pragma once

#include <cstdint>
#include <memory>
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

  FeasibilitySnapshot();

  /// Full-residual snapshot at the ledger's current revision. Borrows the
  /// residual (no copy) — valid until the next residual-changing ledger
  /// operation, which the revision stamp detects.
  static FeasibilitySnapshot capture(const CommitmentLedger& ledger);

  /// Hull-restricted snapshot: owns residual().restricted(hull) and plans
  /// against it directly. `hull` must cover the window of every requirement
  /// later speculated against this snapshot.
  static FeasibilitySnapshot capture(const CommitmentLedger& ledger,
                                     const TimeInterval& hull);

  /// Hull- and shard-restricted snapshot: the owned view keeps only types
  /// whose shard is in `mask`. `mask` must cover the shard footprint of every
  /// requirement later speculated against this snapshot — planning reads
  /// only demanded types, so dropping foreign shards changes nothing while
  /// shrinking the copy a lane pays per round.
  static FeasibilitySnapshot capture(const CommitmentLedger& ledger,
                                     const TimeInterval& hull, ShardMask mask);

  /// Snapshot over a bare availability (digest, baseline supply, what-if).
  /// Borrows `supply`; speculation-only (kDetachedRevision).
  static FeasibilitySnapshot over(const ResourceSet& supply, Tick now = 0);

  /// Derived what-if: this snapshot's planning view minus `plan`'s usage.
  /// nullopt when the plan is not covered. Speculation-only.
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

  /// The availability this snapshot stands for (hull-restricted when built
  /// with a hull).
  const ResourceSet& view() const { return borrowed_ ? *borrowed_ : owned_; }

  /// True when speculation should plan against view() directly (the view is
  /// already narrowed, or the caller asked for no per-request restriction).
  bool pre_restricted() const { return pre_restricted_; }

  /// view() restricted to `window`, memoized. Repeat windows — and windows
  /// contained in any previously cached one — are served from the cache.
  /// Thread-safe; the returned reference lives as long as the snapshot.
  const ResourceSet& restricted(const TimeInterval& window) const;

 private:
  struct Cache;

  const ResourceSet* borrowed_ = nullptr;  // aliases the source when borrowing
  ResourceSet owned_;                      // storage when not borrowing
  std::uint64_t revision_ = kDetachedRevision;
  ShardRevisions shard_revisions_{};       // frozen when has_shard_stamps_
  Tick now_ = 0;
  Tick lapsed_before_ = CommitmentLedger::kNothingLapsed;
  bool pre_restricted_ = false;
  bool has_shard_stamps_ = false;
  std::shared_ptr<Cache> cache_;  // lazily grown, internally locked
};

}  // namespace rota
