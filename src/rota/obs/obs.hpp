// Observability front door: hot-path guards, toggles, and the core
// instrument set threaded through admission, the ledger, the simulator and
// the explorer.
//
// Disabled is the default and costs almost nothing: ROTA_OBS_SPAN compiles
// to one relaxed atomic load and a branch when no TraceRecorder is
// installed, and metrics sites pay the same gate via metrics_enabled().
// tests/test_obs_overhead.cpp holds that to < 2% of batched-admission
// per-request cost.
//
// Enabling:
//   * metrics — obs::enable_metrics(true); instruments live in
//     MetricsRegistry::global() (snapshot() / reset() at will);
//   * tracing — construct a TraceRecorder and install() it; spans flow in
//     from every instrumented scope until uninstall();
//   * env     — obs::trace_path_from_env() reads ROTA_TRACE; binaries that
//     honor it (bench/e15_throughput, examples) enable both and write the
//     Chrome-trace JSON artifact to that path.
//
// The admission service (rota/service/) is not instrumented here: it counts
// into a MetricsRegistry of its own, always on, and its service.* names never
// reach the global registry. Binaries that dump both (rota_served under
// ROTA_TRACE) merge the two snapshots.
//
// Metric names and the span taxonomy are documented in docs/observability.md.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "rota/obs/metrics.hpp"
#include "rota/obs/trace.hpp"

namespace rota::obs {

namespace detail {
extern std::atomic<bool> g_metrics_enabled;
}

/// True when metric recording is on (one relaxed load).
inline bool metrics_enabled() {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}
void enable_metrics(bool on);

/// True when a trace sink is installed (one relaxed-ish load).
inline bool tracing_enabled() { return TraceRecorder::current() != nullptr; }

/// Steady-clock nanoseconds, the time base of the *_ns histograms.
inline std::uint64_t clock_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Gated counter bump: no-op unless metrics are enabled.
inline void count(Counter& c, std::uint64_t n = 1) {
  if (metrics_enabled()) c.add(n);
}

/// The ROTA_TRACE environment variable: when set and non-empty, its value is
/// the path a traced run should write its Chrome-trace JSON to.
std::optional<std::string> trace_path_from_env();

/// RAII span: emits a B event on construction and the matching E on scope
/// exit, into the installed recorder. Free when no recorder is installed.
class Span {
 public:
  explicit Span(const char* name) : rec_(TraceRecorder::current()) {
    if (rec_ != nullptr) {
      name_ = name;
      rec_->begin(name);
    }
  }
  /// `args` is a JSON object body, e.g. "\"lanes\": 4" (built only when a
  /// recorder is installed — pass via lambda to defer formatting).
  template <typename ArgsFn>
  Span(const char* name, ArgsFn&& args_fn) : rec_(TraceRecorder::current()) {
    if (rec_ != nullptr) {
      name_ = name;
      rec_->begin(name, args_fn());
    }
  }
  ~Span() {
    if (rec_ != nullptr) rec_->end(name_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  TraceRecorder* rec_;
  const char* name_ = nullptr;
};

#define ROTA_OBS_CONCAT_IMPL(a, b) a##b
#define ROTA_OBS_CONCAT(a, b) ROTA_OBS_CONCAT_IMPL(a, b)
/// Scoped span covering the rest of the enclosing block.
#define ROTA_OBS_SPAN(name) \
  ::rota::obs::Span ROTA_OBS_CONCAT(rota_obs_span_, __LINE__)(name)
#define ROTA_OBS_SPAN_ARGS(name, args_fn) \
  ::rota::obs::Span ROTA_OBS_CONCAT(rota_obs_span_, __LINE__)(name, args_fn)

/// Handles to the instruments the built-in instrumentation uses, resolved
/// once from MetricsRegistry::global() (references stay valid for the
/// process lifetime). Names are the single source of truth for
/// docs/observability.md.
struct CoreMetrics {
  // Planning kernel — the single choke point every admission surface
  // (sequential, batch, baselines, negotiation, periodic, cluster
  // probe/claim, audit replay) routes through.
  Counter& plan_speculations;           // plans attempted against a snapshot
  Counter& plan_speculations_feasible;  // speculations that found a plan
  Counter& plan_speculations_rescued;   // greedy planner rejected, symbolic
                                        // feasibility engine found a plan
  Counter& plan_speculations_rescue_unknown;  // rescue gave up (node budget
                                              // or tick ceiling): the
                                              // rejection is "not shown
                                              // feasible", not proved
  Histogram& plan_rescue_ns;            // wall time per symbolic rescue
  Counter& plan_commit_accepted;
  Counter& plan_commit_rejected_deadline;  // window empty: deadline passed
  Counter& plan_commit_rejected_no_plan;   // planner found no feasible plan
  Counter& plan_commit_rejected_conflict;  // ledger refused at commit (defensive)
  Counter& plan_commit_stale;  // revision moved since speculation; redone
  Counter& plan_commit_shard_salvaged;  // global revision moved, but the
                                        // speculation's shard footprint did
                                        // not — committed without a redo

  // Batched pipeline, per round (speculation counts live in plan.*).
  Counter& batch_rounds;
  Counter& batch_speculations_wasted;  // attempted, then discarded by an accept
  Gauge& batch_lanes;                  // planning lanes of the last controller
  Histogram& batch_round_ns;           // wall time per snapshot+speculate+commit

  // Commitment ledger.
  Counter& ledger_joins;
  Counter& ledger_admits;
  Counter& ledger_releases;
  Counter& ledger_expiries;          // expire() calls that moved the lapse point
  Gauge& ledger_revision;            // last observed residual revision
  Gauge& ledger_residual_segments;   // residual term count after its last change

  // Simulator.
  Counter& sim_ticks;
  Counter& sim_labels;  // consumption labels applied
  Counter& sim_joins;
  Counter& sim_admissions;
  Counter& sim_gc_runs;

  // Explorer.
  Counter& explorer_greedy_runs;  // full greedy executions (any order)

  // Cluster layer: per-node admission outcomes and protocol traffic.
  Counter& cluster_submitted;       // jobs entering a node's admission path
  Counter& cluster_local_accepts;   // admitted by the origin's own ledger
  Counter& cluster_remote_accepts;  // admitted via probe/offer/claim
  Counter& cluster_rejects;         // final rejections (all causes)
  Counter& cluster_probes;          // probe RPCs sent
  Counter& cluster_offers;          // offers received by origins
  Counter& cluster_claims;          // claim RPCs sent
  Counter& cluster_claims_stale;    // claims rejected: residual moved
  Counter& cluster_timeouts;        // probe/claim attempts that timed out
  Counter& cluster_retries;         // backoff retries started
  Counter& cluster_gossip;          // digest messages sent
  Counter& cluster_recoveries;      // node restarts that replayed an audit log

  // Message fabric.
  Counter& fabric_sent;
  Counter& fabric_dropped;          // loss roll, partition, or down endpoint
  Counter& fabric_delivered;
  Histogram& fabric_delay_ticks;    // per-delivered-message latency (ticks)

  // Socket transport (live federation peers; the fabric counts itself above).
  Counter& transport_sent;          // messages written to a peer socket
  Counter& transport_dropped;       // unreachable peer / dead connection
  Counter& transport_received;      // messages decoded off peer sockets
  Counter& transport_connects;      // outbound peer connections established
  Counter& transport_auth_failures; // inbound sessions refused (bad hello)

  static CoreMetrics& get();
};

}  // namespace rota::obs
