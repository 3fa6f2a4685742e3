// The admission round, and the batch controller built on it.
//
// admit_round() is the one multi-request decision path: the batch
// controller, the admission service's dispatcher and its peer claims all
// call it, so every surface decides in FCFS order through the same steps
// (planning-kernel vocabulary, rota/plan/):
//
//   snapshot  — one owned FeasibilitySnapshot::capture(ledger, hull, mask)
//               per round, over the hull of the round's windows and the
//               shards its demands touch; plans are bit-identical to a
//               per-request capture's (the planner reads nothing else).
//   speculate — lanes claim indices from an atomic cursor in FCFS order,
//               run PlanningKernel::speculate (pure, thread-safe) against the
//               shared snapshot and publish each PlanResult into a slot with
//               a release store: a lock-free MPSC queue in request order. An
//               index whose shard footprint meets an earlier feasible
//               speculation is skipped (it could only come out stale), and
//               the round's remaining claims stop with it.
//   commit    — the calling thread commits slots in FCFS order through
//               PlanningKernel::commit, helping speculate while the head is
//               in flight. Per-shard revision stamps salvage results on
//               shards no earlier accept touched; the first stale or skipped
//               slot ends the round, and the tail is re-speculated next round
//               against a fresh snapshot — redone, never committed stale.
//
// The round owns no expiry: it also ends before a non-head slot whose window
// starts behind the clock once the clock has moved since the snapshot. The
// batch controller expires before every round, so that slot is planned as
// the sequential controller would plan it; the admission service never
// expires. A slot whose planning budget ran out (kCancelled) is settled
// without a commit and does not end the round; one whose speculation throws
// ends it.
//
// Rejections never mutate the residual, so long reject runs are decided from
// one snapshot with full parallelism, and shard salvage keeps accepts on one
// location from serializing the others. Decisions (accept set, plans,
// reasons) and the residual are identical to RotaAdmissionController
// processing the same requests one at a time, in any arrival order.
#pragma once

#include <cstddef>
#include <exception>
#include <span>
#include <vector>

#include "rota/admission/controller.hpp"
#include "rota/runtime/thread_pool.hpp"

namespace rota {

/// One queued admission request: an already-derived requirement plus its
/// arrival tick (the `now` the sequential controller would see).
struct BatchRequest {
  ConcurrentRequirement rho;
  Tick at = 0;
  const CancellationToken* budget = nullptr;  // expired ⇒ kCancelled
};

/// How one request left its round. Nothing was committed for a kCancelled
/// speculation (`decision` carries only the reason) or one that threw.
struct RoundOutcome {
  PlanStatus planned = PlanStatus::kInfeasible;  // the speculation's status
  AdmissionDecision decision;
  std::exception_ptr error;  // set when the speculation threw
};

/// Requests one round considers at `lanes` planning lanes.
std::size_t round_lookahead(std::size_t lanes);

/// One round over the head of `requests` (at most round_lookahead of them),
/// speculating on the caller and up to pool.concurrency() - 1 pool workers.
/// Settles a non-empty FCFS prefix and returns its outcomes, positionally;
/// the rest is the next round's. The caller is the ledger's only writer.
std::vector<RoundOutcome> admit_round(const PlanningKernel& kernel,
                                      CommitmentLedger& ledger, ThreadPool& pool,
                                      std::span<const BatchRequest> requests);

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

  /// Admits the requests in the given (FCFS) order in admit_round() rounds,
  /// expiring the ledger before each round and on return. Returns one
  /// decision per request, positionally; rethrows a speculation's exception
  /// after committing the requests ahead of it.
  std::vector<AdmissionDecision> admit_batch(const std::vector<BatchRequest>& requests);

  /// Resource acquisition rule.
  void on_join(const ResourceSet& joined) { ledger_.join(joined); }

  const CommitmentLedger& ledger() const { return ledger_; }
  /// Mutable ledger access for recovery paths (audit-log replay after a
  /// crash rebuilds commitments directly). Not for use between admit_batch
  /// rounds on live traffic — decisions must flow through admission.
  CommitmentLedger& ledger_for_recovery() { return ledger_; }
  const CostModel& phi() const { return phi_; }
  const PlanningKernel& kernel() const { return kernel_; }

 private:
  CostModel phi_;
  CommitmentLedger ledger_;
  PlanningKernel kernel_;
  ThreadPool pool_;
};

}  // namespace rota
