#include "rota/service/service.hpp"

#include <future>
#include <stdexcept>
#include <string>
#include <utility>

namespace rota::service {

namespace {

std::uint64_t ns_between(std::chrono::steady_clock::time_point from,
                         std::chrono::steady_clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

/// `lanes` counts the threads that plan, the dispatcher included: zero is a
/// misconfiguration, not a request for some default.
const ServiceConfig& validated(const ServiceConfig& config) {
  if (config.lanes == 0) {
    throw std::invalid_argument("AdmissionService: lanes must be at least 1");
  }
  return config;
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

AdmissionService::AdmissionService(CommitmentLedger& ledger, CostModel phi,
                                   ServiceConfig config)
    : ledger_(ledger),
      phi_(std::move(phi)),
      config_(validated(config)),
      m_(metrics_),
      queue_(config.queue_capacity),
      // The dispatcher is a planning thread itself: the pool adds lanes - 1.
      pool_(config.lanes),
      dispatcher_([this] { dispatch_loop(); }) {}

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
                  std::chrono::steady_clock::now(), {}};
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

void AdmissionService::dispatch_loop() {
  // Taken, unsettled requests in FCFS order, and their requirements. A round
  // settles a prefix; the rest stays ahead of anything queued since.
  std::vector<Pending> taken;
  std::vector<BatchRequest> round;
  const std::size_t lookahead = round_lookahead(config_.lanes);
  for (;;) {
    // Block only while nothing waits for a round.
    while (taken.size() < lookahead) {
      std::optional<Pending> next = queue_.pop(/*wait=*/taken.empty());
      if (!next) break;
      next->taken_at = std::chrono::steady_clock::now();
      m_.queue_ns.record(ns_between(next->enqueued_at, next->taken_at));
      try {
        round.push_back(BatchRequest{
            make_concurrent_requirement(phi_, next->request.computation),
            next->request.at});
      } catch (...) {
        // A malformed computation (bad cost model fit, inverted window, …)
        // is the client's mistake, not the service's overload.
        RoundOutcome invalid;
        invalid.error = std::current_exception();
        settle(*next, invalid);
        continue;
      }
      taken.push_back(std::move(*next));
    }
    if (taken.empty()) return;  // closed and drained

    for (std::size_t i = 0; i < taken.size(); ++i) round[i].budget = &taken[i].token;
    std::vector<RoundOutcome> outcomes;
    try {
      std::lock_guard<std::mutex> lock(ledger_mutex_);
      outcomes = admit_round(kernel_, ledger_, pool_, round);
    } catch (...) {
      // The round itself failed, not one speculation (that settles its own
      // slot): answer the head with it, so the rest never wait on it.
      outcomes.emplace_back().error = std::current_exception();
    }
    for (std::size_t i = 0; i < outcomes.size(); ++i) settle(taken[i], outcomes[i]);
    const auto settled = static_cast<std::ptrdiff_t>(outcomes.size());
    taken.erase(taken.begin(), taken.begin() + settled);
    round.erase(round.begin(), round.begin() + settled);
  }
}

void AdmissionService::settle(const Pending& pending, const RoundOutcome& outcome) {
  AdmitResponse response;
  response.id = pending.request.id;
  response.queue_ns = ns_between(pending.enqueued_at, pending.taken_at);
  if (outcome.error) {
    response.verdict = Verdict::kRejected;
    try {
      std::rethrow_exception(outcome.error);
    } catch (const std::exception& e) {
      response.reason = std::string("invalid request: ") + e.what();
    } catch (...) {
      response.reason = "invalid request";
    }
    m_.rejected.add();
  } else if (outcome.planned == PlanStatus::kCancelled) {
    response.verdict = Verdict::kOverloaded;
    response.reason = outcome.decision.reason;
    m_.shed_budget.add();
  } else {
    response.strategy = "exact";
    if (outcome.decision.accepted) {
      response.verdict = Verdict::kAccepted;
      m_.accepted.add();
    } else {
      response.verdict = Verdict::kRejected;
      response.reason = outcome.decision.reason;
      m_.rejected.add();
      // A plan feasible against the round's snapshot that the residual then
      // refused: the commit backstop fired. Must stay zero.
      if (outcome.planned == PlanStatus::kFeasible) m_.revalidations_failed.add();
    }
  }
  response.planning_ns =
      ns_between(pending.taken_at, std::chrono::steady_clock::now());
  m_.planning_ns.record(response.planning_ns);
  respond(pending, std::move(response));
}

void AdmissionService::respond(const Pending& pending, AdmitResponse response) {
  if (!pending.done) return;
  try {
    pending.done(response);
  } catch (...) {
    // A throwing completion callback must not take the dispatcher down; the
    // decision was made and recorded either way.
  }
}

void AdmissionService::drain_and_stop() {
  stopping_.store(true, std::memory_order_release);
  queue_.close();  // the dispatcher drains what was admitted, then sees nullopt
  if (dispatcher_.joinable()) dispatcher_.join();
  pool_.shutdown();  // idempotent
}

}  // namespace rota::service
