// AdmissionService: admission-as-a-service around the PlanningKernel.
//
// The in-process core of the daemon (rota/service/server.hpp adds sockets):
// requests enter a bounded queue and one dispatcher decides them in the batch
// pipeline's admission rounds (admit_round), FCFS in queue order at any lane
// count — each the kernel's one exact decision (Theorem 4), bounded by the
// request's planning budget:
//
//   submit ──▶ BoundedQueue ──▶ dispatcher: take the head and whatever else
//                 │ full?         is queued (≤ round lookahead), derive ρ
//                 ▼             admit_round under the ledger lock: capture →
//             kOverloaded         speculate on the lanes → FCFS commit
//             (shed, immediate) respond after the lock; a stale tail opens
//                                 the next round, ahead of newer requests
//
// `lanes` counts the threads that plan: the dispatcher plus lanes - 1 pool
// helpers inside each round. At most queue_capacity + round_lookahead(lanes)
// requests are in flight.
//
// Back-pressure is explicit at both ends: a full queue sheds at the front
// door with kOverloaded (never silence, never unbounded waiting), and so does
// an expired planning budget — a cancelled speculation is not a decision
// (the round never commits it), so running out of time can never turn into
// a wrong verdict. Every accept carries a plan the ledger re-validates at
// commit; `revalidations_failed` counts that backstop firing and must stay 0.
//
// Stats: the service counts every fact once, always on, into a
// MetricsRegistry of its own (metrics(); names under service.* in
// docs/observability.md); stats() is a snapshot of it. The federation layer
// counts its forwards and peer claims into the same registry. Nothing is
// mirrored into the global registry, so two services in one process keep
// separate counts. While the service is running it must be the ledger's
// only writer.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "rota/computation/cost_model.hpp"
#include "rota/obs/metrics.hpp"
#include "rota/runtime/batch_controller.hpp"
#include "rota/runtime/bounded_queue.hpp"
#include "rota/service/codec.hpp"

namespace rota::service {

struct ServiceConfig {
  std::size_t lanes = 2;                    // planning threads, >= 1
  std::size_t queue_capacity = 64;          // admission queue bound
  std::uint64_t default_budget_us = 20'000; // budget when a request says 0
};

class AdmissionService {
 public:
  using ResponseFn = std::function<void(const AdmitResponse&)>;

  /// The service plans against `ledger` and must be its only writer while
  /// running; `phi` maps computations to requirements exactly as every other
  /// admission surface does.
  AdmissionService(CommitmentLedger& ledger, CostModel phi, ServiceConfig config);
  ~AdmissionService();

  AdmissionService(const AdmissionService&) = delete;
  AdmissionService& operator=(const AdmissionService&) = delete;

  /// Asynchronous admission: `done` is invoked exactly once, from the
  /// dispatcher (decision) or inline on the calling thread (shed on a full
  /// queue or a stopping service). The planning-budget clock starts now —
  /// time spent queued burns budget, so a request that waited past its
  /// budget is shed instead of decided too late to matter.
  void submit(AdmitRequest request, ResponseFn done);

  /// Synchronous admission (submit + wait); the test/bench convenience.
  AdmitResponse admit(AdmitRequest request);

  /// Clean shutdown: closes intake (later submits shed with kOverloaded),
  /// drains every queued request to a response, joins the dispatcher and the
  /// lanes. Idempotent.
  void drain_and_stop();

  /// Point-in-time copy of the service's own instruments.
  obs::MetricsSnapshot stats() const { return metrics_.snapshot(); }
  /// The registry stats() snapshots; the federation layer resolves its
  /// service.forward* and service.peer_claims handles from it.
  obs::MetricsRegistry& metrics() { return metrics_; }
  std::size_t queue_depth() const { return queue_.depth(); }

  /// What the service's rounds run on, for the federation's peer claims;
  /// admit_round() on them requires ledger_mutex().
  CommitmentLedger& shared_ledger() { return ledger_; }
  std::mutex& ledger_mutex() { return ledger_mutex_; }
  PlanningKernel& planning_kernel() { return kernel_; }
  ThreadPool& lanes() { return pool_; }
  const CostModel& phi() const { return phi_; }

 private:
  struct Pending {
    AdmitRequest request;
    ResponseFn done;
    CancellationToken token;
    std::chrono::steady_clock::time_point enqueued_at;
    std::chrono::steady_clock::time_point taken_at;  // planning starts
  };

  /// Handles into metrics_, resolved once at construction.
  struct Instruments {
    explicit Instruments(obs::MetricsRegistry& registry);
    obs::Counter &requests, &accepted, &rejected, &shed_queue, &shed_budget;
    obs::Counter& revalidations_failed;
    obs::Gauge &queue_depth, &max_queue_depth;
    obs::Histogram &planning_ns, &queue_ns;
  };

  void dispatch_loop();
  /// Answers a settled request and counts its outcome.
  void settle(const Pending& pending, const RoundOutcome& outcome);
  void respond(const Pending& pending, AdmitResponse response);
  CancellationToken budget_token(const AdmitRequest& request) const;

  CommitmentLedger& ledger_;
  CostModel phi_;
  ServiceConfig config_;
  obs::MetricsRegistry metrics_;
  Instruments m_;
  PlanningKernel kernel_;
  BoundedQueue<Pending> queue_;
  std::mutex ledger_mutex_;
  ThreadPool pool_;  // the lanes - 1 helpers; shut down by drain_and_stop()
  std::atomic<bool> stopping_{false};
  std::thread dispatcher_;  // last: started once everything it reads exists
};

}  // namespace rota::service
