#include "rota/runtime/batch_controller.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <sstream>

#include "rota/obs/obs.hpp"

namespace rota {

namespace {

/// One cell of the round's lock-free MPSC commit queue. A lane fills
/// `result` (or `error`) and then publishes with a release store to `state`;
/// the committer's acquire load of `state` is the only synchronization the
/// payload needs. Each index is claimed by exactly one lane (the atomic
/// cursor hands indices out once), so there is never a write-write race on a
/// slot, and the committer reads a slot only after observing kReady/kError.
struct SpecSlot {
  static constexpr int kEmpty = 0;
  static constexpr int kReady = 1;
  static constexpr int kError = 2;
  static constexpr int kSkipped = 3;

  PlanResult result;
  std::exception_ptr error;
  std::atomic<int> state{kEmpty};
};

/// Top bit of a round's door word; the low bits count helpers inside.
constexpr std::size_t kDoorClosed = ~(~std::size_t{0} >> 1);

}  // namespace

std::size_t round_lookahead(std::size_t lanes) {
  // Deep lookahead amortizes the per-round snapshot copy — requests arrive
  // clustered in time, so one hull+shard-filtered capture copies each
  // overlapping residual segment once instead of once per request. That pays
  // even at one lane (inline speculation, zero synchronization), which is
  // why the floor is a full round, not 1. Shard salvage keeps the deep
  // speculation useful: an accept only invalidates same-shard results, so
  // far-ahead work on other locations still commits.
  return std::max<std::size_t>(16, 8 * lanes);
}

std::vector<RoundOutcome> admit_round(const PlanningKernel& kernel,
                                      CommitmentLedger& ledger, ThreadPool& pool,
                                      std::span<const BatchRequest> requests) {
  const bool metered = obs::metrics_enabled();
  const std::size_t lanes = pool.concurrency();
  if (metered) {
    obs::CoreMetrics::get().batch_lanes.set(static_cast<std::int64_t>(lanes));
  }
  const std::size_t n = std::min(requests.size(), round_lookahead(lanes));
  if (n == 0) return {};
  std::vector<RoundOutcome> settled;
  const std::uint64_t round_t0 = metered ? obs::clock_ns() : 0;
  ROTA_OBS_SPAN_ARGS("batch.round", [&] {
    std::ostringstream args;
    args << "\"pending\": " << n
         << ", \"snapshot_revision\": " << ledger.revision()
         << ", \"lanes\": " << lanes;
    return args.str();
  });

  // Windows are clipped by each request's own arrival tick, exactly as the
  // kernel's sequential decide() does. The round shares one owned snapshot
  // restricted to the hull of its windows and the union of its shard
  // footprints; owning the view is what lets the committer mutate the
  // ledger while lanes are still speculating against the frozen copy.
  TimeInterval hull;
  ShardMask round_mask = 0;
  for (std::size_t i = 0; i < n; ++i) {
    hull = hull.hull_with(effective_window(requests[i].rho, requests[i].at));
    round_mask |= touched_shard_mask(requests[i].rho);
  }
  const FeasibilitySnapshot snapshot =
      FeasibilitySnapshot::capture(ledger, hull, round_mask);
  const Tick snapshot_now = ledger.now();

  std::vector<SpecSlot> slots(n);
  std::atomic<std::size_t> cursor{0};  // next index to speculate
  std::atomic<bool> cancel{false};
  // Shards touched by feasible (would-be-accept) speculations so far.
  // Indices are claimed in order, so by the time a lane claims i every
  // mask accumulated here belongs to some j < i: if i's own footprint
  // intersects, the accept at j is ahead of it in FCFS order and i's
  // speculation is doomed to read pre-accept residual — skip planning it.
  // Foreign-shard indices keep planning; salvage commits them through the
  // accept. The filter errs only toward planning (a stale skip aborts the
  // round exactly like a stale result), never toward wrong decisions.
  std::atomic<ShardMask> accepted_mask{0};

  // Claim one pending index and speculate it against the round snapshot.
  // Returns false when the round has no unclaimed work left.
  const auto speculate_one = [&]() -> bool {
    if (cancel.load(std::memory_order_relaxed)) return false;
    const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) return false;
    SpecSlot& slot = slots[i];
    const BatchRequest& request = requests[i];
    try {
      const ShardMask mask = touched_shard_mask(request.rho);
      if ((mask & accepted_mask.load(std::memory_order_relaxed)) != 0) {
        // The committer will end the round here at the latest (claims are
        // ordered, so every earlier index is already in flight) — claiming
        // anything past this point is pure waste. Stop the round's claims.
        cancel.store(true, std::memory_order_relaxed);
        slot.state.store(SpecSlot::kSkipped, std::memory_order_release);
      } else {
        slot.result =
            kernel.speculate(request.rho, request.at, snapshot, request.budget);
        if (slot.result.feasible()) {
          accepted_mask.fetch_or(mask, std::memory_order_relaxed);
        }
        slot.state.store(SpecSlot::kReady, std::memory_order_release);
      }
    } catch (...) {
      slot.error = std::current_exception();
      cancel.store(true, std::memory_order_relaxed);
      slot.state.store(SpecSlot::kError, std::memory_order_release);
    }
    // Wake the committer if it is blocked on this slot. notify_one on an
    // atomic with no waiters is a couple of loads — no syscall.
    slot.state.notify_one();
    return true;
  };

  // The committer speculates too, so a round of k requests needs at most
  // k - 1 helpers; a round of one plans inline and wakes nobody.
  // The committer closes the door once the round is settled and waits only
  // for the helpers inside; one the pool starts later touches just the door.
  const std::size_t helpers = std::min(lanes - 1, n - 1);
  const auto door = std::make_shared<std::atomic<std::size_t>>(0);
  for (std::size_t w = 0; w < helpers; ++w) {
    pool.submit([door, &speculate_one] {
      if ((door->fetch_add(1, std::memory_order_acquire) & kDoorClosed) == 0) {
        while (speculate_one()) {
        }
      }
      door->fetch_sub(1, std::memory_order_release);
      door->notify_one();
    });
  }

  // Drain the queue in FCFS order. The committer is also a speculation
  // lane: while the head slot is in flight it claims work of its own
  // instead of blocking, so lanes == 2 does not halve the speculation
  // bandwidth.
  {
    ROTA_OBS_SPAN("batch.commit");
    for (std::size_t i = 0; i < n; ++i) {
      SpecSlot& slot = slots[i];
      int state;
      while ((state = slot.state.load(std::memory_order_acquire)) ==
             SpecSlot::kEmpty) {
        // Help speculate while the head slot is in flight; once the
        // round's claims are exhausted, block on the slot word instead of
        // spinning — on an oversubscribed host a yield loop burns the
        // very timeslice the owning lane needs to finish.
        if (!speculate_one()) slot.state.wait(SpecSlot::kEmpty, std::memory_order_acquire);
      }
      RoundOutcome outcome;
      if (state == SpecSlot::kError) {
        outcome.error = slot.error;
        settled.push_back(std::move(outcome));
        break;
      }
      const PlanResult& result = slot.result;
      outcome.planned = result.status;
      // End the round at a skipped slot (an earlier accept in this round
      // touched one of its shards), at a stale one, and before a late
      // arrival once the clock has moved (its owner may expire the ledger
      // first). The tail re-speculates against a fresh snapshot next round
      // at amortized round cost, which beats redoing each stale result
      // inline against the full residual.
      const bool lags_clock = i != 0 && !result.window.empty() &&
                              result.window.start() < ledger.now() &&
                              ledger.now() != snapshot_now;
      if (state == SpecSlot::kSkipped || lags_clock) break;
      if (result.status == PlanStatus::kCancelled) {
        // Not a decision: nothing is committed, and the residual the rest
        // of the round planned against is untouched.
        outcome.decision.reason = result.reject_reason();
      } else if (kernel.commit(result, ledger, outcome.decision) ==
                 CommitStatus::kStale) {
        break;
      }
      settled.push_back(std::move(outcome));
    }
    cancel.store(true, std::memory_order_relaxed);
  }

  // The round's state lives on this stack frame: helpers inside must be out
  // before it unwinds. Claims are exhausted (or cancelled), so this is a
  // bounded tail wait, not a barrier on useful work.
  for (std::size_t v = door->fetch_or(kDoorClosed, std::memory_order_acquire) |
                       kDoorClosed;
       v != kDoorClosed; v = door->load(std::memory_order_acquire)) {
    door->wait(v, std::memory_order_acquire);
  }

  if (metered) {
    obs::CoreMetrics& m = obs::CoreMetrics::get();
    m.batch_rounds.add();
    // Wasted = planned past the settled prefix and discarded. Skipped and
    // never-claimed indices cost (almost) nothing and are not counted.
    m.batch_speculations_wasted.add(static_cast<std::uint64_t>(
        std::count_if(slots.begin() + static_cast<std::ptrdiff_t>(settled.size()),
                      slots.end(), [](const SpecSlot& slot) {
                        return slot.state.load(std::memory_order_relaxed) ==
                               SpecSlot::kReady;
                      })));
    m.batch_round_ns.record(obs::clock_ns() - round_t0);
  }
  return settled;
}

std::vector<AdmissionDecision> BatchAdmissionController::admit_batch(
    const std::vector<BatchRequest>& requests) {
  ROTA_OBS_SPAN("batch.admit_batch");
  std::vector<AdmissionDecision> decisions;
  decisions.reserve(requests.size());
  while (decisions.size() < requests.size()) {
    // Forget supply behind the clock before capturing, so the round's copy
    // starts at the clock (sequentially, decide() has just done the same).
    ledger_.expire();
    for (RoundOutcome& outcome :
         admit_round(kernel_, ledger_, pool_,
                     std::span(requests).subspan(decisions.size()))) {
      if (outcome.error) std::rethrow_exception(outcome.error);
      decisions.push_back(std::move(outcome.decision));
    }
  }
  ledger_.expire();
  return decisions;
}

}  // namespace rota
