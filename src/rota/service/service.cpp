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
      revalidations_failed(registry.counter("service.revalidations_failed")),
      queue_depth(registry.gauge("service.queue_depth")),
      max_queue_depth(registry.gauge("service.max_queue_depth")),
      planning_ns(registry.histogram("service.planning_ns")),
      queue_ns(registry.histogram("service.queue_ns")) {}

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
  try {
    const ConcurrentRequirement rho =
        make_concurrent_requirement(phi_, pending.request.computation);
    for (;;) {
      if (pending.token.expired()) {
        response.verdict = Verdict::kOverloaded;
        response.reason = "planning budget exhausted";
        m_.shed_budget.add();
        break;
      }
      const FeasibilitySnapshot snapshot = capture(rho, pending.request.at);
      const PlanResult result =
          kernel_.speculate(rho, pending.request.at, snapshot, &pending.token);
      if (result.status == PlanStatus::kCancelled) continue;  // shed above

      AdmissionDecision decision;
      if (commit(result, decision) == CommitStatus::kStale) continue;  // re-capture

      response.strategy = "exact";
      if (decision.accepted) {
        response.verdict = Verdict::kAccepted;
        m_.accepted.add();
      } else {
        response.verdict = Verdict::kRejected;
        response.reason = decision.reason;
        m_.rejected.add();
        // A plan feasible against a live-revision capture that the residual
        // then refused: the commit backstop fired. Must stay zero.
        if (result.feasible()) m_.revalidations_failed.add();
      }
      break;
    }
  } catch (const std::exception& e) {
    // A malformed computation (bad cost model fit, inverted window, …) is the
    // client's mistake, not the service's overload: answer rejected.
    response.verdict = Verdict::kRejected;
    response.reason = std::string("invalid request: ") + e.what();
    m_.rejected.add();
  }

  response.planning_ns = elapsed_ns(planning_start);
  m_.planning_ns.record(response.planning_ns);
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
