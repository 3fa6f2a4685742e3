#include "rota/service/federation.hpp"

#include <chrono>
#include <exception>
#include <span>
#include <stdexcept>

#include "rota/cluster/digest.hpp"

namespace rota::service {

// --- ServiceNodeAdmission ---------------------------------------------------

ServiceNodeAdmission::ServiceNodeAdmission(AdmissionService& service)
    : service_(service),
      peer_claims_(service.metrics().counter("service.peer_claims")) {}

std::vector<AdmissionDecision> ServiceNodeAdmission::admit_batch(
    const std::vector<BatchRequest>& requests) {
  // The dispatcher's rounds, under its mutex: a peer claim and a served
  // local request agree on one residual, and the batch commits in FCFS order.
  std::vector<AdmissionDecision> decisions;
  decisions.reserve(requests.size());
  std::lock_guard<std::mutex> lock(service_.ledger_mutex());
  while (decisions.size() < requests.size()) {
    for (RoundOutcome& outcome :
         admit_round(service_.planning_kernel(), service_.shared_ledger(),
                     service_.lanes(), std::span(requests).subspan(decisions.size()))) {
      if (outcome.error) std::rethrow_exception(outcome.error);
      decisions.push_back(std::move(outcome.decision));
    }
  }
  return decisions;
}

PlanResult ServiceNodeAdmission::probe(const ConcurrentRequirement& rho,
                                       Tick now) {
  // Owned, not borrowed: a round may commit (and rewrite the residual) while
  // this speculation runs outside the lock.
  std::unique_lock<std::mutex> lock(service_.ledger_mutex());
  const FeasibilitySnapshot snapshot = FeasibilitySnapshot::capture(
      service_.shared_ledger(), effective_window(rho, now), touched_shard_mask(rho));
  lock.unlock();
  return service_.planning_kernel().speculate(rho, now, snapshot);
}

AdmissionDecision ServiceNodeAdmission::claim(const ConcurrentRequirement& rho,
                                              Tick now) {
  AdmissionDecision decision = std::move(admit_batch({BatchRequest{rho, now}}).front());
  if (decision.accepted) peer_claims_.add();
  return decision;
}

cluster::SupplyDigest ServiceNodeAdmission::digest(Location site, Tick now,
                                                   std::size_t max_segments) {
  std::lock_guard<std::mutex> lock(service_.ledger_mutex());
  return cluster::make_digest(service_.shared_ledger(), site, now, max_segments);
}

// --- forwarding bridge ------------------------------------------------------

std::optional<WorkSpec> forwardable_work(const AdmitRequest& request) {
  const DistributedComputation& comp = request.computation;
  if (comp.actors().size() != 1) return std::nullopt;
  const ActorComputation& actor = comp.actors().front();
  if (actor.empty()) return std::nullopt;

  WorkSpec spec;
  spec.actor = actor.actor();
  spec.home = actor.actions().front().at;
  spec.earliest_start = comp.earliest_start();
  spec.deadline = comp.deadline();
  const std::vector<Action>& actions = actor.actions();
  for (std::size_t i = 0; i < actions.size(); ++i) {
    const Action& a = actions[i];
    if (a.at != spec.home) return std::nullopt;  // already multi-site
    if (a.kind == ActionKind::kEvaluate) {
      spec.chunk_weights.push_back(a.size);
    } else if (a.kind == ActionKind::kReady && i + 1 == actions.size()) {
      // materialize(kStay)'s trailing ready — shape still forwardable
    } else {
      return std::nullopt;  // sends/creates/migrates pin the computation
    }
  }
  if (spec.chunk_weights.empty()) return std::nullopt;
  return spec;
}

// --- FederatedService -------------------------------------------------------

cluster::NodeConfig FederatedService::daemon_node_config(
    cluster::NodeConfig base) {
  base.expire_by_deadline = true;
  return base;
}

FederatedService::FederatedService(AdmissionService& service,
                                   FederationConfig config)
    : service_(service),
      config_(std::move(config)),
      transport_(config_.transport),
      admission_(service),
      forwarded_(service.metrics().counter("service.forwarded")),
      forward_accepts_(service.metrics().counter("service.forward_accepts")),
      forward_rejects_(service.metrics().counter("service.forward_rejects")),
      forward_expired_(service.metrics().counter("service.forward_expired")),
      node_(config_.transport.local, Location(config_.site), service.phi(),
            daemon_node_config(config_.node), &events_, &transport_,
            &admission_) {
  for (const auto& [peer, address] : config_.transport.peers) {
    node_.set_peer(peer, config_.peer_latency);
  }
  pump_ = std::thread([this] { pump_loop(); });
}

FederatedService::~FederatedService() { stop(); }

void FederatedService::submit(AdmitRequest request,
                              AdmissionService::ResponseFn done) {
  std::optional<WorkSpec> spec;
  if (!stopping_.load(std::memory_order_acquire)) {
    spec = forwardable_work(request);
  }
  if (!spec) {
    service_.submit(std::move(request), std::move(done));
    return;
  }
  service_.submit(
      std::move(request),
      [this, spec = std::move(*spec), done = std::move(done)](
          const AdmitResponse& local) {
        if (local.verdict != Verdict::kRejected ||
            stopping_.load(std::memory_order_acquire)) {
          done(local);
          return;
        }
        forward(spec, local, done);
      });
}

void FederatedService::forward(const WorkSpec& spec, const AdmitResponse& local,
                               AdmissionService::ResponseFn done) {
  Ready ready;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_.load(std::memory_order_acquire)) {
      done(local);
      return;
    }
    const Tick now = transport_.now();
    // Cluster-unique job ids: this node's id in the high bits, a local
    // sequence below — two daemons never mint the same id.
    const std::uint64_t job =
        (static_cast<std::uint64_t>(node_.id()) << 32) | ++next_job_;
    pending_[job] = PendingForward{local.id, std::move(done),
                                   spec.deadline + config_.node.claim_timeout};
    forwarded_.add();
    node_.submit_remote(job, spec, local.reason, now);
    // submit_remote may decide synchronously (no eligible peer): resolve now
    // so the caller is never left waiting on a decision already made.
    ready = resolve_decisions_locked();
  }
  for (auto& [fn, response] : ready) fn(response);
}

FederatedService::Ready FederatedService::resolve_decisions_locked() {
  Ready ready;
  for (; decisions_seen_ < events_.decisions.size(); ++decisions_seen_) {
    const cluster::JobDecision& d = events_.decisions[decisions_seen_];
    auto it = pending_.find(d.id);
    if (it == pending_.end()) continue;
    AdmitResponse response;
    response.id = it->second.request_id;
    response.strategy = "federated";
    if (d.outcome == cluster::Placement::kRejected) {
      response.verdict = Verdict::kRejected;
      response.reason = d.reason;
      forward_rejects_.add();
    } else {
      response.verdict = Verdict::kAccepted;
      forward_accepts_.add();
    }
    ready.emplace_back(std::move(it->second.done), std::move(response));
    pending_.erase(it);
  }
  return ready;
}

FederatedService::Ready FederatedService::expire_forwards_locked(Tick now) {
  Ready ready;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (now < it->second.expire_at) {
      ++it;
      continue;
    }
    AdmitResponse response;
    response.id = it->second.request_id;
    response.verdict = Verdict::kRejected;
    response.strategy = "federated";
    response.reason = "forward expired: no peer verdict within the deadline budget";
    forward_expired_.add();
    ready.emplace_back(std::move(it->second.done), std::move(response));
    it = pending_.erase(it);
  }
  return ready;
}

void FederatedService::pump_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    Ready ready;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const Tick now = transport_.now();
      node_.pump(now);
      node_.on_tick(now);
      ready = resolve_decisions_locked();
      for (auto& expired : expire_forwards_locked(now)) {
        ready.push_back(std::move(expired));
      }
    }
    for (auto& [fn, response] : ready) fn(response);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(config_.pump_interval_ms));
  }
}

void FederatedService::stop() {
  if (stopped_.exchange(true)) return;
  stopping_.store(true, std::memory_order_release);
  if (pump_.joinable()) pump_.join();

  Ready ready;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    node_.abort_pending(transport_.now(), "federation shutting down");
    ready = resolve_decisions_locked();
    // Defensive: nothing should survive abort_pending, but a forward that
    // raced stop() must still be answered.
    for (auto& [job, p] : pending_) {
      AdmitResponse response;
      response.id = p.request_id;
      response.verdict = Verdict::kRejected;
      response.strategy = "federated";
      response.reason = "federation shutting down";
      ready.emplace_back(std::move(p.done), std::move(response));
    }
    pending_.clear();
  }
  for (auto& [fn, response] : ready) fn(response);
  transport_.close();
}

}  // namespace rota::service
