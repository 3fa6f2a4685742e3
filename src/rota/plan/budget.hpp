// Planning-time budgets: the cancellation token the admission service threads
// through the kernel.
//
// A request that arrives with a latency budget must stop *reasoning* when the
// budget runs out — the paper's §VI concern made operational. The token is
// the cheapest sound mechanism for that: a deadline on the steady clock plus
// an explicit cancel flag, checked at speculation boundaries (before
// planning, between the greedy ladder and the symbolic rescue). Planning
// never observes a torn state: a cancelled speculation returns
// PlanStatus::kCancelled, which the kernel refuses to commit, so a budget
// overrun can only cost the work already done — never a wrong decision.
//
// Tokens are cheap value types; share one across threads freely (the flag is
// atomic, the deadline immutable after construction).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

namespace rota {

class CancellationToken {
 public:
  using Clock = std::chrono::steady_clock;

  /// A token that never expires on its own (cancel() still works).
  CancellationToken() : state_(std::make_shared<State>()) {}

  /// A token that expires when the steady clock passes `deadline`.
  static CancellationToken with_deadline(Clock::time_point deadline) {
    CancellationToken t;
    t.state_->deadline = deadline;
    t.state_->has_deadline = true;
    return t;
  }

  /// A token expiring `budget_ns` nanoseconds from now (0 = never).
  static CancellationToken with_budget_ns(std::uint64_t budget_ns) {
    if (budget_ns == 0) return CancellationToken();
    return with_deadline(Clock::now() + std::chrono::nanoseconds(budget_ns));
  }

  /// Explicit cancellation (load shedding, connection gone).
  void cancel() { state_->cancelled.store(true, std::memory_order_relaxed); }

  /// True once cancelled or past the deadline. This is the check planted at
  /// speculation boundaries; it costs one relaxed load plus (when a deadline
  /// is set) one clock read.
  bool expired() const {
    if (state_->cancelled.load(std::memory_order_relaxed)) return true;
    return state_->has_deadline && Clock::now() >= state_->deadline;
  }

 private:
  struct State {
    std::atomic<bool> cancelled{false};
    Clock::time_point deadline{};
    bool has_deadline = false;
  };
  std::shared_ptr<State> state_;
};

}  // namespace rota
