// Batched admission: the sequential FCFS controller's semantics at pipeline
// throughput.
//
// A batch of (Λ, s, d) requests is admitted in rounds, all expressed in the
// planning kernel's vocabulary (rota/plan/):
//
//   snapshot  — FeasibilitySnapshot::capture(ledger, hull, mask) freezes one
//               *owned* view of the residual per round, restricted to the
//               hull of the round's windows and to the location shards the
//               round's demands touch: one filtered copy per round instead
//               of one restriction per request, yielding bit-identical plans
//               (the planner never reads outside a request's window or
//               demand types).
//   speculate — lanes claim round indices from an atomic cursor (in FCFS
//               order) and plan them against the shared snapshot via
//               PlanningKernel::speculate — pure and thread-safe. Each lane
//               publishes its finished PlanResult into a per-request slot
//               with a release store; the slots form a lock-free MPSC queue
//               in request order. A lane that claims an index whose shard
//               footprint intersects an earlier feasible (would-be-accept)
//               speculation marks the slot skipped instead of planning it —
//               that result could only come out stale — and stops the
//               round's remaining claims, which are equally doomed.
//   commit    — the calling thread is the single committer: it consumes
//               slots strictly in FCFS order (acquire loads), committing
//               each through PlanningKernel::commit. Thanks to per-shard
//               revision stamps, an accept only invalidates later
//               speculations that touch the *same location shards*; results
//               on foreign shards are salvaged and committed as-is. The
//               first stale (or skipped) slot ends the round: the tail is
//               re-speculated against a fresh snapshot next round at
//               amortized cost — redone, never committed stale. While the
//               head slot is still in flight the committer helps speculate
//               instead of blocking.
//
//   expire    — the ledger forgets supply behind its clock at the start of
//               every round and when admit_batch returns, so each round's
//               snapshot copies only live supply. A slot whose window starts
//               behind the clock (an arrival that lags the requests already
//               committed) expires the ledger before its commit; if that
//               moved the lapse point, the kernel refuses the slot as stale
//               and the next round re-speculates it against the trimmed
//               residual, exactly as the sequential controller would have
//               planned it. Arrival-ordered input never takes that path.
//
// Rejections — the common case under heavy traffic — never mutate the
// residual, so arbitrarily long reject runs are decided from one snapshot
// with full parallelism; and with shard salvage, accept traffic on one
// location no longer serializes speculation on the others. The decision
// sequence (accept set, plans, reasons) and the residual are identical,
// decision for decision, to RotaAdmissionController processing the same
// requests one at a time, in any arrival order.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "rota/admission/controller.hpp"
#include "rota/runtime/thread_pool.hpp"

namespace rota {

/// One queued admission request: an already-derived requirement plus its
/// arrival tick (the `now` the sequential controller would see).
struct BatchRequest {
  ConcurrentRequirement rho;
  Tick at = 0;
};

class BatchAdmissionController {
 public:
  /// `concurrency` is the total number of planning lanes (1 = no worker
  /// threads; speculation runs inline but still in lookahead rounds, which
  /// amortize the snapshot scan — decisions are identical at any lane
  /// count).
  BatchAdmissionController(CostModel phi, ResourceSet initial_supply,
                           PlanningPolicy policy = PlanningPolicy::kAsap,
                           std::size_t concurrency = 1, Tick now = 0)
      : phi_(std::move(phi)),
        ledger_(std::move(initial_supply), now),
        kernel_(policy),
        pool_(concurrency) {}

  /// Admits the requests in the given (FCFS) order. Returns one decision per
  /// request, positionally.
  std::vector<AdmissionDecision> admit_batch(const std::vector<BatchRequest>& requests);

  /// Derives ρ(Λ, s, d) via this controller's Φ (for building batches).
  ConcurrentRequirement derive(const DistributedComputation& lambda) const {
    return make_concurrent_requirement(phi_, lambda);
  }

  /// Single-request path — identical to the sequential controller.
  AdmissionDecision request(const ConcurrentRequirement& rho, Tick now) {
    return kernel_.decide(ledger_, rho, now);
  }

  /// Commits a speculation produced against a snapshot of this controller's
  /// ledger; nullopt when the speculation went stale (re-speculate).
  std::optional<AdmissionDecision> commit(const PlanResult& result) {
    AdmissionDecision decision;
    if (kernel_.commit(result, ledger_, decision) != CommitStatus::kCommitted) {
      return std::nullopt;
    }
    return decision;
  }

  /// Resource acquisition rule.
  void on_join(const ResourceSet& joined) { ledger_.join(joined); }

  /// Computation leave rule (only before the computation starts).
  bool release(const std::string& name) { return ledger_.release(name); }

  const CommitmentLedger& ledger() const { return ledger_; }
  /// Mutable ledger access for recovery paths (audit-log replay after a
  /// crash rebuilds commitments directly). Not for use between admit_batch
  /// rounds on live traffic — decisions must flow through admission.
  CommitmentLedger& ledger_for_recovery() { return ledger_; }
  const CostModel& phi() const { return phi_; }
  const PlanningKernel& kernel() const { return kernel_; }
  PlanningPolicy policy() const { return kernel_.policy(); }
  std::size_t concurrency() const { return pool_.concurrency(); }

 private:
  CostModel phi_;
  CommitmentLedger ledger_;
  PlanningKernel kernel_;
  ThreadPool pool_;
};

}  // namespace rota
