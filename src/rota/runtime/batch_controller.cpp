#include "rota/runtime/batch_controller.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
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

}  // namespace

std::vector<AdmissionDecision> BatchAdmissionController::admit_batch(
    const std::vector<BatchRequest>& requests) {
  ROTA_OBS_SPAN("batch.admit_batch");
  const bool metered = obs::metrics_enabled();
  const std::size_t lanes = pool_.concurrency();
  if (metered) {
    obs::CoreMetrics::get().batch_lanes.set(static_cast<std::int64_t>(lanes));
  }
  const std::size_t n = requests.size();
  std::vector<AdmissionDecision> decisions(n);

  // Deep lookahead amortizes the per-round snapshot copy — requests arrive
  // clustered in time, so one hull+shard-filtered capture copies each
  // overlapping residual segment once instead of once per request. That pays
  // even at one lane (inline speculation, zero synchronization), which is
  // why the floor is a full round, not 1. Shard salvage keeps the deep
  // speculation useful: an accept only invalidates same-shard results, so
  // far-ahead work on other locations still commits.
  const std::size_t lookahead = std::max<std::size_t>(16, 8 * lanes);

  std::size_t next = 0;
  while (next < n) {
    // Forget supply behind the clock before capturing, so the round's copy
    // starts at the clock (sequentially, decide() has just done the same).
    ledger_.expire();
    const std::size_t base = next;
    const std::size_t end = std::min(n, base + lookahead);
    const std::uint64_t round_t0 = metered ? obs::clock_ns() : 0;
    ROTA_OBS_SPAN_ARGS("batch.round", [&] {
      std::ostringstream args;
      args << "\"base\": " << base << ", \"pending\": " << (end - base)
           << ", \"snapshot_revision\": " << ledger_.revision()
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
    for (std::size_t i = base; i < end; ++i) {
      hull = hull.hull_with(effective_window(requests[i].rho, requests[i].at));
      round_mask |= touched_shard_mask(requests[i].rho);
    }
    const FeasibilitySnapshot snapshot =
        FeasibilitySnapshot::capture(ledger_, hull, round_mask);

    std::vector<SpecSlot> slots(end - base);
    std::atomic<std::size_t> cursor{base};  // next index to speculate
    std::atomic<bool> cancel{false};
    std::atomic<std::size_t> active{0};  // workers still inside the round
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
      if (i >= end) return false;
      SpecSlot& slot = slots[i - base];
      try {
        const ShardMask mask = touched_shard_mask(requests[i].rho);
        if ((mask & accepted_mask.load(std::memory_order_relaxed)) != 0) {
          // The committer will end the round here at the latest (claims are
          // ordered, so every earlier index is already in flight) — claiming
          // anything past this point is pure waste. Stop the round's claims.
          cancel.store(true, std::memory_order_relaxed);
          slot.state.store(SpecSlot::kSkipped, std::memory_order_release);
        } else {
          slot.result =
              kernel_.speculate(requests[i].rho, requests[i].at, snapshot);
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

    const std::size_t spawned = std::min(lanes - 1, end - base);
    active.store(spawned, std::memory_order_relaxed);
    for (std::size_t w = 0; w < spawned; ++w) {
      pool_.submit([&] {
        while (speculate_one()) {
        }
        active.fetch_sub(1, std::memory_order_release);
        active.notify_one();
      });
    }

    // Drain the queue in FCFS order. The committer is also a speculation
    // lane: while the head slot is in flight it claims work of its own
    // instead of blocking, so lanes == 2 does not halve the speculation
    // bandwidth.
    std::exception_ptr first_error;
    std::size_t aborted_at = end;  // first round index not committed
    {
      ROTA_OBS_SPAN("batch.commit");
      for (std::size_t i = base; i < end; ++i) {
        SpecSlot& slot = slots[i - base];
        int state;
        while ((state = slot.state.load(std::memory_order_acquire)) ==
               SpecSlot::kEmpty) {
          // Help speculate while the head slot is in flight; once the
          // round's claims are exhausted, block on the slot word instead of
          // spinning — on an oversubscribed host a yield loop burns the
          // very timeslice the owning lane needs to finish.
          if (!speculate_one()) slot.state.wait(SpecSlot::kEmpty, std::memory_order_acquire);
        }
        if (state == SpecSlot::kError) {
          first_error = slot.error;
          break;
        }
        if (state == SpecSlot::kReady && !slot.result.window.empty() &&
            slot.result.window.start() < ledger_.now()) {
          // An arrival behind the clock: the sequential controller plans it
          // against a residual expired at the current clock. Expire first;
          // if that moved the lapse point past the snapshot's, the kernel
          // refuses the slot as stale and the next round re-speculates it
          // against the trimmed residual.
          ledger_.expire();
        }
        if (state == SpecSlot::kSkipped ||
            kernel_.commit(slot.result, ledger_, decisions[i]) ==
                CommitStatus::kStale) {
          // This request's shard footprint moved underneath it — an earlier
          // accept in this round touched one of its shards (kSkipped is the
          // same fact detected at claim time). End the round here: the tail
          // re-speculates against a fresh snapshot next round at amortized
          // round cost, which beats redoing each stale result inline against
          // the full residual. `next` already points at this request.
          aborted_at = i;
          cancel.store(true, std::memory_order_relaxed);
          break;
        }
        ++next;
      }
    }

    // The round's state lives on this stack frame: workers must be out
    // before it unwinds. Claims are exhausted (or cancelled), so this is a
    // bounded tail wait, not a barrier on useful work.
    for (std::size_t v = active.load(std::memory_order_acquire); v != 0;
         v = active.load(std::memory_order_acquire)) {
      active.wait(v, std::memory_order_acquire);
    }
    if (first_error) std::rethrow_exception(first_error);

    if (metered) {
      obs::CoreMetrics& m = obs::CoreMetrics::get();
      m.batch_rounds.add();
      // Wasted = planned past the abort point and discarded. Skipped and
      // never-claimed indices cost (almost) nothing and are not counted.
      std::uint64_t wasted = 0;
      for (std::size_t i = aborted_at; i < end; ++i) {
        if (slots[i - base].state.load(std::memory_order_relaxed) ==
            SpecSlot::kReady) {
          ++wasted;
        }
      }
      m.batch_speculations_wasted.add(wasted);
      m.batch_round_ns.record(obs::clock_ns() - round_t0);
    }
  }
  ledger_.expire();
  return decisions;
}

}  // namespace rota
