#include "rota/service/service.hpp"

#include <future>
#include <stdexcept>
#include <string>
#include <utility>

namespace rota::service {

namespace {

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

AdmissionService::Instruments::Instruments(obs::MetricsRegistry& registry)
    : requests(registry.counter("service.requests")),
      accepted(registry.counter("service.accepted")),
      rejected(registry.counter("service.rejected")),
      shed_queue(registry.counter("service.shed_queue")),
      shed_budget(registry.counter("service.shed_budget")),
      demotions(registry.counter("service.demotions")),
      promotions(registry.counter("service.promotions")),
      revalidations_failed(registry.counter("service.revalidations_failed")),
      queue_depth(registry.gauge("service.queue_depth")),
      max_queue_depth(registry.gauge("service.max_queue_depth")),
      level(registry.gauge("service.level")),
      planning_ns(registry.histogram("service.planning_ns")),
      queue_ns(registry.histogram("service.queue_ns")) {
  for (int k = 0; k < kStrategyCount; ++k) {
    const std::string name = strategy_name(static_cast<StrategyKind>(k));
    served[k] = &registry.counter("service.served." + name);
    latency_ns[k] = &registry.histogram("service.latency." + name + "_ns");
  }
}

namespace {

/// A service with no lane never answers: submits would queue forever.
const ServiceConfig& validated(const ServiceConfig& config) {
  if (config.lanes == 0) {
    throw std::invalid_argument("AdmissionService: lanes must be at least 1");
  }
  return config;
}

}  // namespace

AdmissionService::AdmissionService(CommitmentLedger& ledger, CostModel phi,
                                   ServiceConfig config)
    : ledger_(ledger),
      phi_(std::move(phi)),
      config_(validated(config)),
      m_(metrics_),
      registry_(kernel_, config.digest_max_segments ? config.digest_max_segments : 1),
      governor_(config.governor),
      queue_(config.queue_capacity),
      // lanes workers + the (unused-for-lanes) caller slot: every lane loop
      // must land on a real worker thread, never run inline in submit().
      pool_(config.lanes + 1) {
  for (std::size_t i = 0; i < pool_.concurrency() - 1; ++i) {
    pool_.submit([this] { lane_loop(); });
  }
}

AdmissionService::~AdmissionService() { drain_and_stop(); }

CancellationToken AdmissionService::budget_token(const AdmitRequest& request) const {
  const std::uint64_t budget_us =
      request.budget_us != 0 ? request.budget_us : config_.default_budget_us;
  return CancellationToken::with_budget_ns(budget_us * 1000);
}

void AdmissionService::submit(AdmitRequest request, ResponseFn done) {
  m_.requests.add();

  CancellationToken token = budget_token(request);
  Pending pending{std::move(request), std::move(done), std::move(token),
                  std::chrono::steady_clock::now()};
  if (stopping_.load(std::memory_order_acquire) ||
      !queue_.try_push(std::move(pending))) {
    // Shed at the front door: the queue bound (or a stopping service) turned
    // overload into an immediate, explicit answer instead of latent latency.
    m_.shed_queue.add();
    AdmitResponse response;
    response.id = pending.request.id;
    response.verdict = Verdict::kOverloaded;
    response.reason = "admission queue full";
    respond(pending, std::move(response));
    return;
  }
  const auto depth = static_cast<std::int64_t>(queue_.depth());
  m_.queue_depth.set(depth);
  m_.max_queue_depth.set_max(depth);
}

AdmitResponse AdmissionService::admit(AdmitRequest request) {
  std::promise<AdmitResponse> decided;
  auto future = decided.get_future();
  submit(std::move(request),
         [&decided](const AdmitResponse& r) { decided.set_value(r); });
  return future.get();
}

FeasibilitySnapshot AdmissionService::capture(const ConcurrentRequirement& rho,
                                              Tick now) {
  std::lock_guard<std::mutex> lock(ledger_mutex_);
  return FeasibilitySnapshot::capture(ledger_, effective_window(rho, now),
                                      touched_shard_mask(rho));
}

CommitStatus AdmissionService::commit(const PlanResult& result,
                                      AdmissionDecision& decision) {
  std::lock_guard<std::mutex> lock(ledger_mutex_);
  return kernel_.commit(result, ledger_, decision);
}

void AdmissionService::lane_loop() {
  while (auto pending = queue_.pop()) {
    serve(std::move(*pending));
  }
}

void AdmissionService::serve(Pending pending) {
  const std::uint64_t queue_ns = elapsed_ns(pending.enqueued_at);
  m_.queue_ns.record(queue_ns);

  AdmitResponse response;
  response.id = pending.request.id;
  response.queue_ns = queue_ns;

  const auto planning_start = std::chrono::steady_clock::now();
  std::uint64_t planning_ns = 0;
  bool observed = false;  // whether this request should feed the governor
  int served_by = -1;     // the StrategyKind that decided it, if any
  try {
    const ConcurrentRequirement rho =
        make_concurrent_requirement(phi_, pending.request.computation);
    for (;;) {
      if (pending.token.expired()) {
        planning_ns = elapsed_ns(planning_start);
        response.verdict = Verdict::kOverloaded;
        response.reason = "planning budget exhausted";
        m_.shed_budget.add();
        observed = true;  // budget pressure is pressure: the governor sees it
        break;
      }
      const StrategyKind kind =
          registry_.pick(pending.token.remaining_ns(), governor_.level());
      AnytimeStrategy& strategy = registry_.strategy(kind);

      const FeasibilitySnapshot snapshot = capture(rho, pending.request.at);
      const auto attempt_start = std::chrono::steady_clock::now();
      const PlanResult result =
          strategy.speculate(rho, pending.request.at, snapshot, pending.token);
      const std::uint64_t attempt_ns = elapsed_ns(attempt_start);
      if (result.status != PlanStatus::kCancelled) {
        // Cancelled attempts stopped early; folding their truncated time into
        // the EWMA would teach pick() that a slow strategy is cheap.
        strategy.record_cost(attempt_ns);
      }
      if (result.status == PlanStatus::kCancelled) continue;  // shed above

      AdmissionDecision decision;
      if (commit(result, decision) == CommitStatus::kStale) {
        continue;  // re-pick, re-capture
      }

      planning_ns = elapsed_ns(planning_start);
      served_by = static_cast<int>(kind);
      m_.served[served_by]->add();
      response.strategy = strategy_name(kind);
      if (decision.accepted) {
        response.verdict = Verdict::kAccepted;
        m_.accepted.add();
      } else {
        response.verdict = Verdict::kRejected;
        response.reason = decision.reason;
        m_.rejected.add();
        if (result.feasible()) {
          // The ladder's safety invariant failed: a degraded strategy found a
          // "feasible" plan the live residual refused. Counted loudly; the
          // strategy test suite and the bench gate hold this at zero.
          m_.revalidations_failed.add();
        }
      }
      observed = true;
      break;
    }
  } catch (const std::exception& e) {
    // A malformed computation (bad cost model fit, inverted window, …) is the
    // client's mistake, not the service's overload: answer rejected.
    planning_ns = elapsed_ns(planning_start);
    response.verdict = Verdict::kRejected;
    response.reason = std::string("invalid request: ") + e.what();
    m_.rejected.add();
  }

  response.planning_ns = planning_ns;
  m_.planning_ns.record(planning_ns);
  if (served_by >= 0) m_.latency_ns[served_by]->record(planning_ns);

  if (observed) {
    switch (governor_.observe(planning_ns, queue_.depth())) {
      case GovernorEvent::kDemoted:
        m_.demotions.add();
        break;
      case GovernorEvent::kPromoted:
        m_.promotions.add();
        break;
      case GovernorEvent::kNone:
        break;
    }
    m_.level.set(static_cast<std::int64_t>(governor_.level()));
  }

  respond(pending, std::move(response));
}

void AdmissionService::respond(const Pending& pending, AdmitResponse response) {
  if (!pending.done) return;
  try {
    pending.done(response);
  } catch (...) {
    // A throwing completion callback must not take a planning lane down;
    // the decision was made and recorded either way.
  }
}

void AdmissionService::drain_and_stop() {
  stopping_.store(true, std::memory_order_release);
  queue_.close();   // lanes drain what was admitted, then see nullopt
  pool_.shutdown(); // joins the lanes; idempotent
}

}  // namespace rota::service
