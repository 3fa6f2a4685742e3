// Federation: N admission daemons running the cluster protocol live.
//
// The sim proves the protocol (deterministically, over FabricTransport);
// this header runs the *same* ClusterNode against the *same* protocol over
// real sockets, with the live AdmissionService's ledger as the node's
// admission backend:
//
//   client ──▶ AdmissionService (local-first, exact decision)
//                   │ rejected, deadline budget left, forwardable shape
//                   ▼
//              ClusterNode ──probe/offer/claim──▶ peers (SocketTransport)
//                   │                               │
//                   ▼                               ▼
//              JobDecision ──▶ client          ServiceNodeAdmission
//                                              (peer claims commit into the
//                                               peer's live service ledger)
//
// Two pieces:
//
//   * ServiceNodeAdmission — cluster::NodeAdmission over an
//     AdmissionService: probes capture an owned snapshot under the service's
//     ledger mutex and speculate outside the lock; claims and local batches
//     run the dispatcher's admission rounds (admit_round) on the service
//     ledger under that mutex, so federation and live traffic agree on one
//     residual and claim-time re-validation keeps its guarantee
//     (service.revalidations_failed stays 0).
//
//   * FederatedService — the daemon driver: wraps submit() with the
//     forwarding bridge (a locally-rejected single-actor evaluate-only
//     computation is re-expressed as a WorkSpec — the inverse of
//     MigrationAdvisor::materialize(kStay) — and handed to the node's remote
//     path), and runs the pump thread that drives ClusterNode::pump/on_tick
//     against the SocketTransport clock.
//
// Both count into the service's own registry (AdmissionService::metrics()):
// service.forwarded, .forward_accepts, .forward_rejects, .forward_expired
// and .peer_claims appear in AdmissionService::stats().
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "rota/cluster/node.hpp"
#include "rota/net/socket_transport.hpp"
#include "rota/service/service.hpp"

namespace rota::service {

/// The daemon-mode admission backend: the cluster protocol planning against
/// the live service ledger, deciding in the same admission rounds as the
/// service's dispatcher. A claim is a batch of one.
class ServiceNodeAdmission final : public cluster::NodeAdmission {
 public:
  explicit ServiceNodeAdmission(AdmissionService& service);

  std::vector<AdmissionDecision> admit_batch(
      const std::vector<BatchRequest>& requests) override;
  PlanResult probe(const ConcurrentRequirement& rho, Tick now) override;
  AdmissionDecision claim(const ConcurrentRequirement& rho, Tick now) override;
  cluster::SupplyDigest digest(Location site, Tick now,
                               std::size_t max_segments) override;

 private:
  AdmissionService& service_;
  obs::Counter& peer_claims_;  // service.peer_claims: claims committed here
};

/// A locally-rejected request's shape as location-independent work, when it
/// has one: a single actor, evaluate chunks (optionally closed by ready) at
/// one location. Exactly what MigrationAdvisor::materialize(kStay) builds,
/// inverted; anything else returns nullopt and the local rejection stands.
std::optional<WorkSpec> forwardable_work(const AdmitRequest& request);

struct FederationConfig {
  std::string site;                     // this daemon's location name
  net::SocketTransportConfig transport; // local id, listen, peers, secret
  cluster::NodeConfig node;             // protocol knobs (fanout, timeouts…)
  Tick peer_latency = 1;                // static transfer-delay estimate
  std::int64_t pump_interval_ms = 5;    // pump-thread cadence
};

class FederatedService {
 public:
  /// Binds the transport listener and starts the pump thread immediately.
  /// `service` must outlive this object.
  FederatedService(AdmissionService& service, FederationConfig config);
  ~FederatedService();

  FederatedService(const FederatedService&) = delete;
  FederatedService& operator=(const FederatedService&) = delete;

  /// The federated front door: local admission first; a local rejection
  /// that is forwardable and still inside its deadline goes to the peers,
  /// and `done` fires with the peers' verdict instead (strategy
  /// "federated"). Everything else answers exactly like
  /// AdmissionService::submit.
  void submit(AdmitRequest request, AdmissionService::ResponseFn done);

  /// Stops forwarding, finalizes every pending remote conversation as
  /// rejected (their callbacks fire), joins the pump thread, closes the
  /// transport. Idempotent. Does NOT stop the underlying service — the
  /// caller drains it afterwards, per the daemon's shutdown order.
  void stop();

  net::SocketTransport& transport() { return transport_; }
  cluster::ClusterNode& node() { return node_; }

 private:
  struct PendingForward {
    std::uint64_t request_id = 0;
    AdmissionService::ResponseFn done;
    // Hard answer-by tick: the request's deadline plus a claim-timeout of
    // grace (a legitimate ClaimAck can still arrive until about then). A
    // peer that crashes between offer and claim leaves the conversation to
    // the node's own timeout machinery; if even that goes silent — the node
    // rejects at the deadline via expire_by_deadline — the sweep answers
    // the client with a reject at expire_at. Never silence.
    Tick expire_at = 0;
  };
  using Ready = std::vector<std::pair<AdmissionService::ResponseFn, AdmitResponse>>;

  void pump_loop();
  /// Starts the remote path for a locally-rejected forwardable request.
  void forward(const WorkSpec& spec, const AdmitResponse& local,
               AdmissionService::ResponseFn done);
  /// Matches fresh JobDecisions to pending forwards; must hold mutex_. The
  /// returned callbacks are fired by the caller *after* unlocking — a
  /// completion callback is free to re-enter submit().
  Ready resolve_decisions_locked();
  /// Rejects every pending forward whose expire_at has passed; must hold
  /// mutex_. A decision arriving after the sweep answered finds no pending
  /// entry and is dropped (a late peer accept stays committed at the peer —
  /// conservative over-commitment, never an unanswered client).
  Ready expire_forwards_locked(Tick now);
  /// The daemon's node config: `base` with expire_by_deadline forced on, so
  /// a conversation stranded by a peer crash dies at the deadline instead of
  /// limping silently.
  static cluster::NodeConfig daemon_node_config(cluster::NodeConfig base);

  AdmissionService& service_;
  FederationConfig config_;
  net::SocketTransport transport_;
  ServiceNodeAdmission admission_;

  // The service's service.forward* counters: local rejections handed to the
  // peers, and how each ended (peer accept, reject by every peer, or the
  // expiry sweep after the peers went silent).
  obs::Counter& forwarded_;
  obs::Counter& forward_accepts_;
  obs::Counter& forward_rejects_;
  obs::Counter& forward_expired_;

  std::mutex mutex_;  // guards node_, events_, pending_, next_job_
  cluster::ClusterEvents events_;
  cluster::ClusterNode node_;
  std::size_t decisions_seen_ = 0;
  std::map<std::uint64_t, PendingForward> pending_;
  std::uint64_t next_job_ = 0;

  std::thread pump_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
};

}  // namespace rota::service
