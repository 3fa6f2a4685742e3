// PlanningKernel: Theorem 4 as one audited code path.
//
// Every admission surface in the system — the sequential controller, the
// batched pipeline, the baseline strategy harness, deadline negotiation,
// periodic series admission, cluster probe/claim, and crash-recovery
// replay — answers the same question: does a feasible consumption plan for
// the newcomer exist against the residual supply, and if so, commit it
// without disturbing earlier admissions. The kernel is that question asked
// exactly once in code, split into the two halves the surfaces compose
// differently:
//
//   speculate(rho, at, snapshot) — pure. Clips the requirement window to the
//     arrival tick, plans against the snapshot's availability view, and
//     returns a PlanResult stamped with the snapshot's revision. Thread-safe
//     and side-effect free: any number of lanes may speculate against one
//     snapshot concurrently.
//
//   commit(result, ledger)       — the only writer. Refuses (kStale, ledger
//     untouched) whenever the result's revision no longer matches the
//     ledger, or its window starts behind a lapse point that moved after
//     its snapshot was taken: a stale speculation is redone, never
//     committed. Otherwise it advances the ledger clock, subtracts the plan
//     on accept, and issues the decision — FCFS order is whatever order the
//     caller commits in. commit() never expires the ledger: the admission
//     service commits directly and keeps its whole history.
//
// decide() is the sequential composition (speculate against a fresh
// snapshot, commit, then expire the ledger at its new clock; retry on the
// impossible-in-sequence stale case) and replay() is the crash-recovery
// variant that re-admits an audited plan through the same commit gate, so
// even a WAL rebuild cannot bypass the revision-checked path.
//
// The kernel is also the observability choke point: plan.speculate.* and
// plan.commit.* metrics plus the plan.speculate / plan.commit spans are
// emitted here and nowhere else, so every surface's admission traffic lands
// in one instrument set.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "rota/admission/ledger.hpp"
#include "rota/computation/requirement.hpp"
#include "rota/logic/planner.hpp"
#include "rota/plan/budget.hpp"
#include "rota/plan/snapshot.hpp"

namespace rota {

/// The requirement's window clipped to the present (empty ⇔ deadline passed).
TimeInterval effective_window(const ConcurrentRequirement& rho, Tick now);

/// `rho` with every actor's window replaced by `window` — the kernel's
/// re-clip for requests whose earliest start is already behind the clock,
/// and negotiation's what-if window substitution.
ConcurrentRequirement clip_requirement(const ConcurrentRequirement& rho,
                                       const TimeInterval& window);

/// The shard footprint of a requirement: the shards of every located type
/// its demand names. Planning reads availability only for demanded types, and
/// a plan's usage is confined to them, so this mask bounds everything a
/// speculation reads *and* everything its commit writes.
ShardMask touched_shard_mask(const ConcurrentRequirement& rho);

/// What one admission decides: accepted with a plan, or why not.
struct AdmissionDecision {
  bool accepted = false;
  std::optional<ConcurrentPlan> plan;  // present iff accepted
  std::string reason;                  // human-readable rejection cause
};

enum class PlanStatus {
  kFeasible,        // a plan exists against the snapshot
  kDeadlinePassed,  // effective window empty at the arrival tick
  kInfeasible,      // planner found no feasible consumption plan
  kCancelled,       // planning-time budget expired before a verdict — not a
                    // decision; commit() refuses it (kStale, nothing issued)
};

/// One speculation's outcome, stamped with the snapshot revision it is valid
/// for. Pure data: carrying it across threads or holding it across commits
/// is safe — commit() checks the stamp.
struct PlanResult {
  PlanStatus status = PlanStatus::kInfeasible;
  std::string computation;             // requirement name (ledger key)
  TimeInterval window;                 // effective (clipped) window
  Tick at = 0;                         // arrival tick used for clipping
  std::uint64_t revision = FeasibilitySnapshot::kDetachedRevision;
  Tick lapsed_before = CommitmentLedger::kNothingLapsed;  // snapshot's lapse point
  std::optional<ConcurrentPlan> plan;  // present iff kFeasible

  // Shard-level staleness witness, populated when the snapshot carried shard
  // stamps (captures of a live ledger). `touched_mask` is the requirement's
  // shard footprint; `shard_stamp` is the snapshot's compressed stamp of
  // those shards. commit() salvages a result whose global revision moved as
  // long as the footprint's stamp still matches: every type the speculation
  // read (and the plan writes) is untouched, so replaying it would produce
  // the identical decision. Deadline-passed results read nothing — their
  // empty footprint (mask 0, stamp 0) is always salvageable.
  ShardMask touched_mask = 0;
  std::uint64_t shard_stamp = 0;
  bool sharded = false;  // stamps valid (false for over()/minus() snapshots)

  bool feasible() const { return status == PlanStatus::kFeasible; }

  /// Canonical rejection wording, shared by every surface.
  const char* reject_reason() const;
};

enum class CommitStatus {
  kCommitted,  // decision issued (accept or reject) against a live revision
  kStale,      // revision moved since speculation; nothing issued
};

/// Knobs for the budget-aware speculate entry point. Defaults reproduce the
/// plain speculate() exactly; the admission service's anytime strategies vary
/// them per request.
struct SpeculateOptions {
  /// Checked at speculation boundaries (entry, and between the greedy ladder
  /// and the symbolic rescue). Expired => PlanStatus::kCancelled. May be
  /// null: never cancelled.
  const CancellationToken* cancel = nullptr;

  /// When false, a greedy multi-actor rejection stands — the symbolic
  /// cut-point rescue is skipped (the service's kGreedy "fast ladder only"
  /// strategy, and a sensible default once the budget is nearly gone).
  bool symbolic_rescue = true;

  /// Plan against this availability instead of the snapshot's view. The
  /// caller warrants it is dominated by the snapshot's true view (e.g. a
  /// StepFunction digest hull), so any plan found is feasible against the
  /// live residual and the result keeps the snapshot's revision stamps —
  /// commit-able exactly like an exact speculation.
  const ResourceSet* view_override = nullptr;
};

class PlanningKernel {
 public:
  explicit PlanningKernel(PlanningPolicy policy = PlanningPolicy::kAsap)
      : policy_(policy) {}

  PlanningPolicy policy() const { return policy_; }

  /// Pure speculation against a frozen snapshot. Plans against the
  /// snapshot's view directly when it is pre-restricted (hull views, bare
  /// supplies), and through the snapshot's restriction cache otherwise.
  PlanResult speculate(const ConcurrentRequirement& rho, Tick at,
                       const FeasibilitySnapshot& snapshot) const;

  /// Budget-aware speculation: speculate() with a cancellation token checked
  /// at speculation boundaries, an optional rescue opt-out, and an optional
  /// dominated-view override (see SpeculateOptions). With default options
  /// this is bit-identical to speculate().
  PlanResult speculate(const ConcurrentRequirement& rho, Tick at,
                       const FeasibilitySnapshot& snapshot,
                       const SpeculateOptions& options) const;

  /// Speculation against the snapshot restricted to `focus` (served from the
  /// snapshot's restriction cache). `focus` must cover the requirement's
  /// effective window; monotone searches probing many candidate windows
  /// inside one focus pay for a single restriction.
  PlanResult speculate_within(const ConcurrentRequirement& rho, Tick at,
                              const FeasibilitySnapshot& snapshot,
                              const TimeInterval& focus) const;

  /// Single-actor speculation (the migration advisor's scoring path): plans
  /// one complex requirement against the snapshot's view.
  std::optional<ActorPlan> speculate_actor(const ComplexRequirement& requirement,
                                           const FeasibilitySnapshot& snapshot) const;

  /// Revision-checked commit. kStale (nothing issued — re-speculate) when
  /// the result's revision no longer matches the ledger, or when its
  /// non-empty window starts before the ledger's lapse point and that point
  /// moved after the result's snapshot was taken (the speculation may have
  /// planned on supply that has since lapsed). Otherwise advances the ledger
  /// clock to the result's arrival tick and issues the decision into `out`,
  /// subtracting the plan from the residual on accept. Never expires.
  CommitStatus commit(const PlanResult& result, CommitmentLedger& ledger,
                      AdmissionDecision& out) const;

  /// speculate + commit against the live ledger, then expire it: the
  /// sequential decision. On arrival-ordered input it is identical to a
  /// ledger that never forgets, since no window reaches behind the clock; a
  /// request arriving behind the clock plans only on supply at or after it.
  AdmissionDecision decide(CommitmentLedger& ledger,
                           const ConcurrentRequirement& rho, Tick at) const;

  /// Crash-recovery re-admission of an audited plan through the same commit
  /// gate (revision stamped current — a WAL replay is not a speculation).
  /// Returns true when the ledger accepted the plan.
  bool replay(const std::string& computation, const TimeInterval& window,
              const ConcurrentPlan& plan, CommitmentLedger& ledger) const;

 private:
  PlanningPolicy policy_;
};

}  // namespace rota
