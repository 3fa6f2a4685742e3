// AdmissionService: admission-as-a-service around the PlanningKernel.
//
// The in-process core of the daemon (rota/service/server.hpp adds sockets):
// requests enter a bounded admission queue, planning lanes on the runtime's
// ThreadPool drain it, and each request gets the kernel's one exact
// decision (Theorem 4), bounded by its planning budget:
//
//   submit ──▶ BoundedQueue ──▶ lane: capture owned snapshot  (ledger lock)
//                 │                   kernel.speculate         (no lock)
//                 │ full?             kernel.commit            (ledger lock)
//                 ▼                     └─ stale? re-capture and retry
//             kOverloaded             respond
//             (shed, immediate)
//
// Back-pressure is explicit at both ends: a full queue sheds at the front
// door with kOverloaded (never silence, never unbounded waiting), and a
// request whose planning budget expires while it waits or plans is shed the
// same way — a cancelled speculation is not a decision (commit() refuses
// it), so running out of time can never turn into a wrong verdict. Every
// accept carries a concrete plan the ledger re-validates at commit;
// `revalidations_failed` counts the times that backstop fired and must stay
// zero.
//
// Stats: the service counts every fact once, always on, into a
// MetricsRegistry of its own (metrics(); names under service.* in
// docs/observability.md); stats() is a snapshot of it. The federation layer
// counts its forwards and peer claims into the same registry. Nothing is
// mirrored into the global registry, so two services in one process keep
// separate counts.
//
// Threading: lanes speculate concurrently against *owned* snapshots captured
// under the service's ledger mutex (hull- and shard-restricted, so the copy
// is small), and commit under the same mutex. While the service is running
// it must be the ledger's only writer.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>

#include "rota/computation/cost_model.hpp"
#include "rota/obs/metrics.hpp"
#include "rota/plan/kernel.hpp"
#include "rota/runtime/bounded_queue.hpp"
#include "rota/runtime/thread_pool.hpp"
#include "rota/service/codec.hpp"

namespace rota::service {

struct ServiceConfig {
  std::size_t lanes = 2;                    // planning lanes (pool workers), >= 1
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

  const ServiceConfig& config() const { return config_; }

  /// Asynchronous admission: `done` is invoked exactly once, from a planning
  /// lane (decision) or inline on the calling thread (shed on a full queue or
  /// a stopping service). The planning-budget clock starts now — time spent
  /// queued burns budget, so a request that waited past its budget is shed
  /// instead of decided too late to matter.
  void submit(AdmitRequest request, ResponseFn done);

  /// Synchronous admission (submit + wait); the test/bench convenience.
  AdmitResponse admit(AdmitRequest request);

  /// Clean shutdown: closes intake (later submits shed with kOverloaded),
  /// drains every queued request to a response, joins the lanes. Idempotent.
  void drain_and_stop();

  /// Point-in-time copy of the service's own instruments.
  obs::MetricsSnapshot stats() const { return metrics_.snapshot(); }
  /// The registry stats() snapshots; the federation layer resolves its
  /// service.forward* and service.peer_claims handles from it.
  obs::MetricsRegistry& metrics() { return metrics_; }
  std::size_t queue_depth() const { return queue_.depth(); }

  /// The lanes' two ledger steps, each under ledger_mutex(). The federation
  /// adapter (rota/service/federation.hpp) uses them too and, like a lane,
  /// speculates between them outside the lock. capture() returns an owned,
  /// hull- and shard-restricted copy: safe to plan against while a lane
  /// commits, cheap to take.
  FeasibilitySnapshot capture(const ConcurrentRequirement& rho, Tick now);
  CommitStatus commit(const PlanResult& result, AdmissionDecision& decision);

  CommitmentLedger& shared_ledger() { return ledger_; }
  std::mutex& ledger_mutex() { return ledger_mutex_; }
  PlanningKernel& planning_kernel() { return kernel_; }
  const CostModel& phi() const { return phi_; }

 private:
  struct Pending {
    AdmitRequest request;
    ResponseFn done;
    CancellationToken token;
    std::chrono::steady_clock::time_point enqueued_at;
  };

  /// Handles into metrics_, resolved once at construction.
  struct Instruments {
    explicit Instruments(obs::MetricsRegistry& registry);
    obs::Counter &requests, &accepted, &rejected, &shed_queue, &shed_budget;
    obs::Counter& revalidations_failed;
    obs::Gauge &queue_depth, &max_queue_depth;
    obs::Histogram &planning_ns, &queue_ns;
  };

  void lane_loop();
  void serve(Pending pending);
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
  ThreadPool pool_;  // lanes; joined by drain_and_stop() before teardown

  std::atomic<bool> stopping_{false};
};

}  // namespace rota::service
