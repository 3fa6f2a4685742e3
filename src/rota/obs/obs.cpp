#include "rota/obs/obs.hpp"

#include <cstdlib>

namespace rota::obs {

namespace detail {
std::atomic<bool> g_metrics_enabled{false};
}

void enable_metrics(bool on) {
  detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

std::optional<std::string> trace_path_from_env() {
  const char* path = std::getenv("ROTA_TRACE");
  if (path == nullptr || *path == '\0') return std::nullopt;
  return std::string(path);
}

CoreMetrics& CoreMetrics::get() {
  static CoreMetrics metrics = [] {
    MetricsRegistry& r = MetricsRegistry::global();
    return CoreMetrics{
        r.counter("plan.speculate.count"),
        r.counter("plan.speculate.feasible"),
        r.counter("plan.speculate.rescued"),
        r.counter("plan.speculate.rescue_unknown"),
        r.histogram("plan.rescue_ns"),
        r.counter("plan.commit.accepted"),
        r.counter("plan.commit.rejected.deadline_passed"),
        r.counter("plan.commit.rejected.no_plan"),
        r.counter("plan.commit.rejected.conflict"),
        r.counter("plan.commit.stale"),
        r.counter("plan.commit.shard_salvaged"),
        r.counter("batch.rounds"),
        r.counter("batch.speculations_wasted"),
        r.gauge("batch.lanes"),
        r.histogram("batch.round_ns"),
        r.counter("ledger.joins"),
        r.counter("ledger.admits"),
        r.counter("ledger.releases"),
        r.counter("ledger.expiries"),
        r.gauge("ledger.revision"),
        r.gauge("ledger.residual_segments"),
        r.counter("sim.ticks"),
        r.counter("sim.labels"),
        r.counter("sim.joins"),
        r.counter("sim.admissions"),
        r.counter("sim.gc_runs"),
        r.counter("explorer.greedy_runs"),
        r.counter("cluster.submitted"),
        r.counter("cluster.accepted.local"),
        r.counter("cluster.accepted.remote"),
        r.counter("cluster.rejected"),
        r.counter("cluster.probes"),
        r.counter("cluster.offers"),
        r.counter("cluster.claims"),
        r.counter("cluster.claims.stale"),
        r.counter("cluster.timeouts"),
        r.counter("cluster.retries"),
        r.counter("cluster.gossip"),
        r.counter("cluster.recoveries"),
        r.counter("fabric.sent"),
        r.counter("fabric.dropped"),
        r.counter("fabric.delivered"),
        r.histogram("fabric.delay_ticks"),
        r.counter("transport.sent"),
        r.counter("transport.dropped"),
        r.counter("transport.received"),
        r.counter("transport.connects"),
        r.counter("transport.auth_failures"),
        r.counter("service.requests"),
        r.counter("service.shed"),
        r.counter("service.accepted"),
        r.counter("service.rejected"),
        r.counter("service.demotions"),
        r.counter("service.promotions"),
        r.counter("service.budget_cancels"),
        r.counter("service.revalidations_failed"),
        r.counter("service.forwarded"),
        r.counter("service.forward_accepts"),
        r.counter("service.peer_claims"),
        r.gauge("service.queue_depth"),
        r.gauge("service.level"),
        r.histogram("service.latency.exact_ns"),
        r.histogram("service.latency.digest_ns"),
        r.histogram("service.latency.greedy_ns"),
        r.histogram("service.queue_ns"),
    };
  }();
  return metrics;
}

}  // namespace rota::obs
