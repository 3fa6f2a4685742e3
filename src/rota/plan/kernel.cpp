#include "rota/plan/kernel.hpp"

#include <algorithm>

#include "rota/logic/symbolic/feasibility.hpp"
#include "rota/obs/obs.hpp"

namespace rota {

TimeInterval effective_window(const ConcurrentRequirement& rho, Tick now) {
  return TimeInterval(std::max(rho.window().start(), now), rho.window().end());
}

ConcurrentRequirement clip_requirement(const ConcurrentRequirement& rho,
                                       const TimeInterval& window) {
  std::vector<ComplexRequirement> clipped;
  clipped.reserve(rho.actors().size());
  for (const auto& a : rho.actors()) {
    clipped.emplace_back(a.actor(), a.phases(), window, a.rate_cap());
  }
  return ConcurrentRequirement(rho.name(), std::move(clipped), window);
}

ShardMask touched_shard_mask(const ConcurrentRequirement& rho) {
  ShardMask mask = 0;
  for (const auto& actor : rho.actors()) {
    for (const auto& phase : actor.phases()) {
      for (const auto& [type, quantity] : phase.demand.amounts()) {
        mask |= static_cast<ShardMask>(1) << shard_of(type);
      }
    }
  }
  return mask;
}

const char* PlanResult::reject_reason() const {
  switch (status) {
    case PlanStatus::kFeasible: return "";
    case PlanStatus::kDeadlinePassed: return "deadline has already passed";
    case PlanStatus::kInfeasible:
      return "no feasible plan over expiring resources";
    case PlanStatus::kCancelled: return "planning budget exhausted";
  }
  return "";
}

namespace {

// Budget for the in-kernel symbolic probe. The cut search runs a relaxed
// per-type flow check after every boundary it places, so a prefix with no
// completion is cut before its subtree is walked, and each check re-solves
// only the types whose phase windows moved since that type's last check. On
// the e15 input no rescue needs more than 37 nodes. The budget is a
// backstop against pathological windows: past 20,000 nodes or 256 ticks the
// probe returns kUnknown, the greedy rejection stands, and
// plan.speculate.rescue_unknown counts it (plan.rescue_ns records what every
// rescue cost).
constexpr FeasibilityOptions kKernelProbeOptions{/*node_budget=*/20'000,
                                                 /*max_ticks=*/256};

PlanResult speculate_against(const ConcurrentRequirement& rho, Tick at,
                             const FeasibilitySnapshot& snapshot,
                             const ResourceSet* focused_view,
                             PlanningPolicy policy,
                             const SpeculateOptions& options = {}) {
  PlanResult result;
  result.computation = rho.name();
  result.at = at;
  result.revision = snapshot.revision();
  result.lapsed_before = snapshot.lapsed_before();
  result.sharded = snapshot.has_shard_stamps();
  result.window = effective_window(rho, at);
  if (result.window.empty()) {
    // Reads nothing: the empty footprint (mask 0, stamp 0) stays valid under
    // any ledger motion.
    result.status = PlanStatus::kDeadlinePassed;
    return result;
  }
  if (result.sharded) {
    result.touched_mask = touched_shard_mask(rho);
    result.shard_stamp = snapshot.shard_stamp(result.touched_mask);
  }
  if (options.cancel != nullptr && options.cancel->expired()) {
    result.status = PlanStatus::kCancelled;
    return result;
  }
  ROTA_OBS_SPAN("plan.speculate");
  const bool metered = obs::metrics_enabled();
  if (metered) obs::CoreMetrics::get().plan_speculations.add();
  const ResourceSet& view =
      options.view_override != nullptr
          ? *options.view_override
          : (focused_view != nullptr
                 ? *focused_view
                 : (snapshot.pre_restricted() ? snapshot.view()
                                              : snapshot.restricted(result.window)));
  // Most requests arrive before their window opens, so the clip is a no-op;
  // skip the requirement deep-copy when every actor window already matches.
  const bool clip_needed =
      result.window != rho.window() ||
      std::any_of(rho.actors().begin(), rho.actors().end(),
                  [&](const ComplexRequirement& a) {
                    return a.window() != result.window;
                  });
  std::optional<ConcurrentRequirement> clipped;
  if (clip_needed) clipped.emplace(clip_requirement(rho, result.window));
  const ConcurrentRequirement& effective = clipped ? *clipped : rho;
  auto plan = plan_concurrent(view, effective, policy);
  if (!plan && policy == PlanningPolicy::kAsap && effective.actors().size() > 1 &&
      options.symbolic_rescue) {
    // The sequential planner admits actors one at a time and its rejection of
    // a contended multi-actor requirement can be spurious (order-sensitive).
    // Retry with the symbolic cut-point engine before giving up: exact within
    // its budget, deterministic, so every surface sharing the kernel keeps
    // identical decisions. Gated to kAsap — the kAlap/kUniform ablations
    // deliberately measure their policy's own (incomplete) behavior.
    if (options.cancel != nullptr && options.cancel->expired()) {
      // Boundary check between the ladder and the (costlier) rescue: a spent
      // budget turns the spurious-maybe rejection into kCancelled rather than
      // letting the cut search blow the latency SLO.
      result.status = PlanStatus::kCancelled;
      return result;
    }
    const std::uint64_t rescue_t0 = metered ? obs::clock_ns() : 0;
    FeasibilityVerdict verdict = FeasibilityVerdict::kInfeasible;
    plan = symbolic_concurrent_plan(view, effective, at, kKernelProbeOptions,
                                    &verdict);
    if (metered) {
      obs::CoreMetrics& m = obs::CoreMetrics::get();
      m.plan_rescue_ns.record(obs::clock_ns() - rescue_t0);
      if (plan) m.plan_speculations_rescued.add();
      if (verdict == FeasibilityVerdict::kUnknown) {
        m.plan_speculations_rescue_unknown.add();
      }
    }
  }
  if (!plan) {
    result.status = PlanStatus::kInfeasible;
    return result;
  }
  result.status = PlanStatus::kFeasible;
  result.plan = std::move(*plan);
  if (metered) obs::CoreMetrics::get().plan_speculations_feasible.add();
  return result;
}

}  // namespace

PlanResult PlanningKernel::speculate(const ConcurrentRequirement& rho, Tick at,
                                     const FeasibilitySnapshot& snapshot) const {
  return speculate_against(rho, at, snapshot, nullptr, policy_);
}

PlanResult PlanningKernel::speculate(const ConcurrentRequirement& rho, Tick at,
                                     const FeasibilitySnapshot& snapshot,
                                     const SpeculateOptions& options) const {
  return speculate_against(rho, at, snapshot, nullptr, policy_, options);
}

PlanResult PlanningKernel::speculate_within(const ConcurrentRequirement& rho,
                                            Tick at,
                                            const FeasibilitySnapshot& snapshot,
                                            const TimeInterval& focus) const {
  const ResourceSet& view = snapshot.restricted(focus);
  return speculate_against(rho, at, snapshot, &view, policy_);
}

std::optional<ActorPlan> PlanningKernel::speculate_actor(
    const ComplexRequirement& requirement,
    const FeasibilitySnapshot& snapshot) const {
  ROTA_OBS_SPAN("plan.speculate");
  if (obs::metrics_enabled()) obs::CoreMetrics::get().plan_speculations.add();
  auto plan = plan_actor(snapshot.pre_restricted()
                             ? snapshot.view()
                             : snapshot.restricted(requirement.window()),
                         requirement, policy_);
  if (plan && obs::metrics_enabled()) {
    obs::CoreMetrics::get().plan_speculations_feasible.add();
  }
  return plan;
}

CommitStatus PlanningKernel::commit(const PlanResult& result,
                                    CommitmentLedger& ledger,
                                    AdmissionDecision& out) const {
  ROTA_OBS_SPAN("plan.commit");
  const bool metered = obs::metrics_enabled();
  if (result.lapsed_before < ledger.lapsed_before() && !result.window.empty() &&
      result.window.start() < ledger.lapsed_before()) {
    // Expiry bumps no revision, so this is the one staleness the stamps
    // cannot see: the window reaches behind a lapse point the speculation
    // did not know about, and its plan may use supply that has since lapsed.
    if (metered) obs::CoreMetrics::get().plan_commit_stale.add();
    return CommitStatus::kStale;
  }
  if (result.revision != ledger.revision()) {
    // The global revision moved, but if every shard the speculation read is
    // untouched, replaying it against the live ledger would read the same
    // availability and produce the identical result — commit it directly.
    // (Shard counters are monotone, so the compressed-sum comparison is
    // exact; see shard.hpp.)
    if (!result.sharded ||
        result.shard_stamp != ledger.shard_stamp(result.touched_mask)) {
      if (metered) obs::CoreMetrics::get().plan_commit_stale.add();
      return CommitStatus::kStale;
    }
    if (metered) obs::CoreMetrics::get().plan_commit_shard_salvaged.add();
  }
  if (result.status == PlanStatus::kCancelled) {
    // A cancelled speculation is not a decision — committing it would issue a
    // rejection the exact kernel might have accepted, breaking parity. Treat
    // it like a stale result: nothing issued, the caller re-speculates
    // (typically with a cheaper strategy or sheds the request).
    return CommitStatus::kStale;
  }
  ledger.advance_to(std::max(result.at, ledger.now()));
  out = AdmissionDecision{};
  switch (result.status) {
    case PlanStatus::kDeadlinePassed:
      out.reason = result.reject_reason();
      if (metered) obs::CoreMetrics::get().plan_commit_rejected_deadline.add();
      return CommitStatus::kCommitted;
    case PlanStatus::kInfeasible:
      out.reason = result.reject_reason();
      if (metered) obs::CoreMetrics::get().plan_commit_rejected_no_plan.add();
      return CommitStatus::kCommitted;
    case PlanStatus::kCancelled:  // unreachable: early-returned above
      return CommitStatus::kStale;
    case PlanStatus::kFeasible:
      break;
  }
  if (!ledger.admit(result.computation, result.window, *result.plan)) {
    // Defensive: a matching revision certifies the residual the plan was
    // computed against, so the ledger should never refuse here.
    out.reason = "plan no longer fits residual";
    if (metered) obs::CoreMetrics::get().plan_commit_rejected_conflict.add();
    return CommitStatus::kCommitted;
  }
  out.accepted = true;
  out.plan = result.plan;
  if (metered) obs::CoreMetrics::get().plan_commit_accepted.add();
  return CommitStatus::kCommitted;
}

AdmissionDecision PlanningKernel::decide(CommitmentLedger& ledger,
                                         const ConcurrentRequirement& rho,
                                         Tick at) const {
  AdmissionDecision decision;
  // Sequentially the snapshot cannot go stale between speculate and commit;
  // the loop is belt-and-braces for exotic callers.
  do {
    const FeasibilitySnapshot snapshot = FeasibilitySnapshot::capture(ledger);
    const PlanResult result = speculate(rho, at, snapshot);
    if (commit(result, ledger, decision) == CommitStatus::kCommitted) break;
  } while (true);
  ledger.expire();
  return decision;
}

bool PlanningKernel::replay(const std::string& computation,
                            const TimeInterval& window,
                            const ConcurrentPlan& plan,
                            CommitmentLedger& ledger) const {
  PlanResult result;
  result.status = PlanStatus::kFeasible;
  result.computation = computation;
  result.window = window;
  result.at = ledger.now();  // replay never advances the recovering clock
  result.revision = ledger.revision();
  result.lapsed_before = ledger.lapsed_before();
  result.plan = plan;
  AdmissionDecision decision;
  if (commit(result, ledger, decision) != CommitStatus::kCommitted) return false;
  return decision.accepted;
}

}  // namespace rota
