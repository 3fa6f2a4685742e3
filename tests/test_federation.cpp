// Federation: N admission daemons running the cluster protocol over real
// unix sockets, with each daemon's live service ledger as its node's
// admission backend.
//
// The load-bearing suite is the two-node split: a daemon with no local
// supply forwards every locally-rejected request to its peer, the peer's
// ServiceNodeAdmission commits the claims through the same
// speculate/commit-or-retry loop the planning lanes run, and
// revalidations_failed stays 0 on both sides — the claim-time re-validation
// guarantee survives the jump from FabricTransport to SocketTransport.
#include "rota/service/federation.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "rota/service/client.hpp"
#include "rota/service/server.hpp"
#include "rota/workload/generator.hpp"

namespace rota::service {
namespace {

using std::chrono::seconds;

std::string fed_socket_path(const char* tag) {
  return "/tmp/rota_fed_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

/// A forwardable request: one actor, evaluate chunks closed by ready, all at
/// `home` — exactly the shape forwardable_work() re-expresses as a WorkSpec.
AdmitRequest forwardable_request(std::uint64_t id, Location home,
                                 std::int64_t weight = 5,
                                 std::int64_t deadline = 50'000) {
  AdmitRequest request;
  request.id = id;
  request.at = 0;
  request.budget_us = 10'000'000;  // never budget-shed, even sanitized
  ActorComputation actor =
      ActorComputationBuilder("fed-actor-" + std::to_string(id), home)
          .evaluate(weight)
          .ready()
          .build();
  request.computation = DistributedComputation(
      "fed-job-" + std::to_string(id), {actor}, /*earliest_start=*/0,
      deadline);
  return request;
}

struct Node {
  Node(Location site, ResourceSet supply, cluster::NodeId id,
       const std::string& listen_path, cluster::NodeId peer_id,
       const std::string& peer_path)
      : ledger(std::move(supply)), service(ledger, CostModel{}, service_config()) {
    FederationConfig fconfig;
    fconfig.site = site.name();
    fconfig.transport.local = id;
    fconfig.transport.listen = "unix:" + listen_path;
    fconfig.transport.peers[peer_id] = "unix:" + peer_path;
    // Protocol timeouts are counted in ticks (probe 4, claim 6). A wide tick
    // keeps them roomy enough for sanitized builds, where one speculation on
    // the peer can cost north of 100 ms; the 2 ms pump below keeps actual
    // message latency low, so only the timeout budget stretches.
    fconfig.transport.tick_ms = 200;
    // The first node's pump gossips before the second node's listener exists;
    // the default 500 ms reconnect backoff after that failed connect would
    // swallow the (one-shot per round) probe send. Keep the poisoned window
    // tiny relative to the 800 ms probe timeout.
    fconfig.transport.reconnect_backoff_ms = 25;
    fconfig.pump_interval_ms = 2;
    federation = std::make_unique<FederatedService>(service, fconfig);
  }

  static ServiceConfig service_config() {
    ServiceConfig config;
    config.lanes = 1;
    return config;
  }

  CommitmentLedger ledger;
  AdmissionService service;
  std::unique_ptr<FederatedService> federation;
};

ResourceSet ample_supply(Location site) {
  ResourceSet supply;
  supply.add(100, TimeInterval(0, 100'000), LocatedType::cpu(site));
  return supply;
}

AdmitResponse await_response(std::future<AdmitResponse>& f) {
  if (f.wait_for(seconds(20)) != std::future_status::ready) {
    ADD_FAILURE() << "federation never answered";
    return AdmitResponse{};
  }
  return f.get();
}

TEST(Federation, ForwardsLocalRejectionsToAPeerThatAdmitsThem) {
  const Location site_a("fed-starved"), site_b("fed-ample");
  const std::string path_a = fed_socket_path("fwd_a");
  const std::string path_b = fed_socket_path("fwd_b");
  // Node A has no supply at all: every local admission rejects. Node B has
  // ample cpu at its own site; A has never seen a digest from B when the
  // first probe leaves (blind probing — digest-less peers rank last but are
  // still probed).
  Node a(site_a, ResourceSet{}, 0, path_a, 1, path_b);
  Node b(site_b, ample_supply(site_b), 1, path_b, 0, path_a);

  const std::size_t n = 6;
  std::vector<std::future<AdmitResponse>> futures;
  std::vector<std::shared_ptr<std::promise<AdmitResponse>>> promises;
  for (std::uint64_t i = 0; i < n; ++i) {
    auto promise = std::make_shared<std::promise<AdmitResponse>>();
    futures.push_back(promise->get_future());
    promises.push_back(promise);
    a.federation->submit(forwardable_request(i + 1, site_a),
                         [promise](const AdmitResponse& r) {
                           promise->set_value(r);
                         });
  }
  for (std::size_t i = 0; i < n; ++i) {
    const AdmitResponse response = await_response(futures[i]);
    EXPECT_EQ(response.id, i + 1);
    EXPECT_EQ(response.verdict, Verdict::kAccepted) << response.reason;
    EXPECT_EQ(response.strategy, "federated");
  }

  const obs::MetricsSnapshot fa = a.service.stats();
  EXPECT_EQ(fa.counter("service.forwarded"), n);
  EXPECT_EQ(fa.counter("service.forward_accepts"), n);
  EXPECT_EQ(fa.counter("service.forward_rejects"), 0u);
  EXPECT_EQ(b.service.stats().counter("service.peer_claims"), n)
      << "every forward was committed into B's live ledger";
  // The safety backstop on both sides: a peer claim is re-validated against
  // the live residual exactly like a degraded local accept.
  EXPECT_EQ(a.service.stats().counter("service.revalidations_failed"), 0u);
  EXPECT_EQ(b.service.stats().counter("service.revalidations_failed"), 0u);

  a.federation->stop();
  b.federation->stop();
  a.service.drain_and_stop();
  b.service.drain_and_stop();
}

TEST(Federation, LocallyFeasibleRequestsNeverTouchThePeer) {
  const Location site_a("fed-local-a"), site_b("fed-local-b");
  const std::string path_a = fed_socket_path("loc_a");
  const std::string path_b = fed_socket_path("loc_b");
  Node a(site_a, ample_supply(site_a), 0, path_a, 1, path_b);
  Node b(site_b, ample_supply(site_b), 1, path_b, 0, path_a);

  for (std::uint64_t i = 0; i < 4; ++i) {
    auto promise = std::make_shared<std::promise<AdmitResponse>>();
    auto future = promise->get_future();
    a.federation->submit(forwardable_request(i + 1, site_a),
                         [promise](const AdmitResponse& r) {
                           promise->set_value(r);
                         });
    const AdmitResponse response = await_response(future);
    EXPECT_EQ(response.verdict, Verdict::kAccepted) << response.reason;
    EXPECT_NE(response.strategy, "federated") << "local-first stayed local";
  }
  EXPECT_EQ(a.service.stats().counter("service.forwarded"), 0u);
  EXPECT_EQ(b.service.stats().counter("service.peer_claims"), 0u);

  a.federation->stop();
  b.federation->stop();
  a.service.drain_and_stop();
  b.service.drain_and_stop();
}

TEST(Federation, UnforwardableShapesKeepTheirLocalRejection) {
  const Location site_a("fed-shape-a"), site_b("fed-shape-b");
  Node a(site_a, ResourceSet{}, 0, fed_socket_path("shape_a"), 1,
         fed_socket_path("shape_b_unused"));
  // No peer B at all: if the multi-site request were forwarded it would hang
  // through retries; it must instead answer with the local rejection.
  AdmitRequest request;
  request.id = 77;
  request.budget_us = 10'000'000;
  ActorComputation actor = ActorComputationBuilder("pinned", site_a)
                               .evaluate(2)
                               .send(site_b, 3)  // cross-site send pins it
                               .build();
  request.computation =
      DistributedComputation("pinned-job", {actor}, 0, 50'000);
  ASSERT_FALSE(forwardable_work(request).has_value());

  auto promise = std::make_shared<std::promise<AdmitResponse>>();
  auto future = promise->get_future();
  a.federation->submit(std::move(request), [promise](const AdmitResponse& r) {
    promise->set_value(r);
  });
  const AdmitResponse response = await_response(future);
  EXPECT_EQ(response.verdict, Verdict::kRejected);
  EXPECT_NE(response.strategy, "federated");
  EXPECT_EQ(a.service.stats().counter("service.forwarded"), 0u);

  a.federation->stop();
  a.service.drain_and_stop();
}

TEST(Federation, UnreachablePeerResolvesToARejectionNotAHang) {
  const Location site_a("fed-alone");
  // The configured peer never listens: probes are dropped on the floor and
  // the remote rounds must exhaust into a rejection — bounded, not silent.
  Node a(site_a, ResourceSet{}, 0, fed_socket_path("alone_a"), 1,
         "/tmp/rota_fed_nobody_home.sock");

  auto promise = std::make_shared<std::promise<AdmitResponse>>();
  auto future = promise->get_future();
  a.federation->submit(forwardable_request(1, site_a),
                       [promise](const AdmitResponse& r) {
                         promise->set_value(r);
                       });
  const AdmitResponse response = await_response(future);
  EXPECT_EQ(response.verdict, Verdict::kRejected);
  EXPECT_EQ(response.strategy, "federated");
  EXPECT_FALSE(response.reason.empty());
  const obs::MetricsSnapshot stats = a.service.stats();
  EXPECT_EQ(stats.counter("service.forwarded"), 1u);
  EXPECT_EQ(stats.counter("service.forward_rejects"), 1u);

  a.federation->stop();
  a.service.drain_and_stop();
}

TEST(Federation, StopAnswersWhatIsPendingAndIsIdempotent) {
  const Location site_a("fed-stopping");
  Node a(site_a, ResourceSet{}, 0, fed_socket_path("stop_a"), 1,
         "/tmp/rota_fed_stop_nobody.sock");

  auto promise = std::make_shared<std::promise<AdmitResponse>>();
  auto future = promise->get_future();
  a.federation->submit(forwardable_request(1, site_a),
                       [promise](const AdmitResponse& r) {
                         promise->set_value(r);
                       });
  a.federation->stop();  // may race the forward: either path must answer
  const AdmitResponse response = await_response(future);
  EXPECT_EQ(response.verdict, Verdict::kRejected);
  a.federation->stop();  // idempotent
  a.service.drain_and_stop();
}

// The stranded-forward regression: the peer daemon dies mid-conversation —
// after forwards are in flight, possibly between offer and claim — and every
// pending forward must still answer a verdict within the deadline budget.
// Before the expiry sweep, a forward whose peer vanished after the offer
// could strand forever: the await below would time out. Now the service
// expires it against deadline + claim_timeout and answers reject, never
// silence.
TEST(Federation, PeerDeathMidConversationAnswersRejectNotSilence) {
  const Location site_a("fed-kill-a"), site_b("fed-kill-b");
  const std::string path_a = fed_socket_path("kill_a");
  const std::string path_b = fed_socket_path("kill_b");
  Node a(site_a, ResourceSet{}, 0, path_a, 1, path_b);
  auto b = std::make_unique<Node>(site_b, ample_supply(site_b), 1, path_b, 0,
                                  path_a);

  // A tight deadline: 20 transport ticks (4 s at tick_ms 200), so even a
  // forward with no node-level verdict expires at deadline + claim_timeout,
  // well inside await_response's 20 s bound.
  const std::size_t n = 6;
  std::vector<std::future<AdmitResponse>> futures;
  std::vector<std::shared_ptr<std::promise<AdmitResponse>>> promises;
  for (std::uint64_t i = 0; i < n; ++i) {
    auto promise = std::make_shared<std::promise<AdmitResponse>>();
    futures.push_back(promise->get_future());
    promises.push_back(promise);
    a.federation->submit(
        forwardable_request(i + 1, site_a, 5, /*deadline=*/20),
        [promise](const AdmitResponse& r) { promise->set_value(r); });
  }

  // Kill the peer the moment the first forward is on the wire: whatever
  // conversations are mid-probe or mid-claim lose their counterparty.
  const auto kill_by = std::chrono::steady_clock::now() + seconds(10);
  while (a.service.stats().counter("service.forwarded") == 0 &&
         std::chrono::steady_clock::now() < kill_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(a.service.stats().counter("service.forwarded"), 0u);
  b->federation->stop();
  b->service.drain_and_stop();
  b.reset();

  std::size_t accepted = 0, rejected = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const AdmitResponse response = await_response(futures[i]);
    EXPECT_EQ(response.id, i + 1);
    if (response.verdict == Verdict::kAccepted) {
      ++accepted;  // won the race against the kill — legitimate
    } else {
      ++rejected;
      EXPECT_EQ(response.strategy, "federated");
      EXPECT_FALSE(response.reason.empty()) << "a reject must say why";
    }
  }
  EXPECT_EQ(accepted + rejected, n) << "every forward answered";

  const obs::MetricsSnapshot stats = a.service.stats();
  EXPECT_EQ(stats.counter("service.forwarded"), n);
  EXPECT_EQ(stats.counter("service.forward_accepts"), accepted);
  EXPECT_EQ(stats.counter("service.forward_rejects") +
                stats.counter("service.forward_expired"),
            rejected)
      << "rejects came from a verdict or the expiry sweep, not from silence";

  a.federation->stop();
  a.service.drain_and_stop();
}

// The full two-daemon stack: client ──socket──▶ ServiceServer(A) ──▶
// FederatedService(A) ──peer socket──▶ node B, which commits into B's live
// ledger. The ISSUE's acceptance shape: a split workload admitted across two
// daemons with revalidations_failed == 0, then a clean drain in the daemon's
// shutdown order (federation first, then the server).
TEST(Federation, TwoDaemonEndToEndOverUnixSockets) {
  const Location site_a("fed-e2e-a"), site_b("fed-e2e-b");
  const std::string peer_a = fed_socket_path("e2e_peer_a");
  const std::string peer_b = fed_socket_path("e2e_peer_b");
  Node a(site_a, ResourceSet{}, 0, peer_a, 1, peer_b);
  Node b(site_b, ample_supply(site_b), 1, peer_b, 0, peer_a);

  ServerConfig sconfig;
  sconfig.unix_path = fed_socket_path("e2e_front_a");
  ServiceServer server(a.service, sconfig,
                       [&a](AdmitRequest request,
                            AdmissionService::ResponseFn done) {
                         a.federation->submit(std::move(request),
                                              std::move(done));
                       });

  ServiceClient client = ServiceClient::connect_unix(server.unix_path());
  const std::size_t n = 4;
  for (std::uint64_t i = 0; i < n; ++i) {
    client.send(forwardable_request(i + 1, site_a));
  }
  std::size_t federated = 0;
  for (std::size_t i = 0; i < n; ++i) {
    auto response = client.receive();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->verdict, Verdict::kAccepted) << response->reason;
    if (response->strategy == "federated") ++federated;
  }
  EXPECT_EQ(federated, n) << "a supply-less daemon serves via its peer";

  // The daemon's shutdown order: federation first (pending forwards answer
  // through still-writable sessions), then the server's clean drain.
  a.federation->stop();
  b.federation->stop();
  server.stop();
  EXPECT_EQ(a.service.stats().counter("service.revalidations_failed"), 0u);
  EXPECT_EQ(b.service.stats().counter("service.revalidations_failed"), 0u);
  EXPECT_EQ(b.service.stats().counter("service.peer_claims"), n);
  b.service.drain_and_stop();
}

// The peer-facing backend speculates outside the ledger mutex while the
// service's lanes commit. Its snapshots are owned copies like the lanes'
// own: a view aliasing the residual that a lane's commit reassigns would be
// a data race ThreadSanitizer reports. Afterwards the books
// balance: every local accept and every accepted claim is one admitted
// record, and no accept was refused at commit.
TEST(Federation, PeerProbesAndClaimsRaceTheLanesSafely) {
  WorkloadConfig wconfig;
  wconfig.seed = 31;
  wconfig.num_locations = 3;
  wconfig.laxity = 2.5;
  WorkloadGenerator gen(wconfig, CostModel{});
  CommitmentLedger ledger(gen.base_supply(TimeInterval(0, 4000)));
  ServiceConfig config;
  config.lanes = 2;
  const std::size_t n_local = 3000, n_claims = 300;
  config.queue_capacity = n_local;        // nothing sheds at the front door
  config.default_budget_us = 60'000'000;  // nor on budget, even sanitized
  AdmissionService service(ledger, gen.phi(), config);
  ServiceNodeAdmission backend(service);

  // The generator is single-threaded: build both streams up front.
  std::vector<AdmitRequest> local;
  for (std::size_t i = 0; i < n_local; ++i) {
    AdmitRequest request;
    request.id = i + 1;
    request.at = static_cast<Tick>(i % 2000);
    request.computation = gen.make_computation(request.at);
    local.push_back(std::move(request));
  }
  std::vector<std::pair<ConcurrentRequirement, Tick>> claims;
  for (std::size_t i = 0; i < n_claims; ++i) {
    const Tick at = static_cast<Tick>((i * 7) % 2000);
    claims.emplace_back(
        make_concurrent_requirement(gen.phi(), gen.make_computation(at)), at);
  }

  std::atomic<std::size_t> local_accepts{0};
  std::thread submitter([&] {
    for (AdmitRequest& request : local) {
      service.submit(std::move(request), [&](const AdmitResponse& r) {
        if (r.verdict == Verdict::kAccepted) local_accepts.fetch_add(1);
      });
    }
  });
  std::size_t claims_accepted = 0;
  std::thread peer([&] {
    for (const auto& [rho, at] : claims) {
      backend.probe(rho, at);
      if (backend.claim(rho, at).accepted) ++claims_accepted;
    }
  });
  submitter.join();
  peer.join();
  service.drain_and_stop();

  const obs::MetricsSnapshot stats = service.stats();
  EXPECT_EQ(stats.counter("service.requests"), n_local);
  EXPECT_EQ(stats.counter("service.revalidations_failed"), 0u);
  EXPECT_EQ(stats.counter("service.peer_claims"), claims_accepted);
  EXPECT_GT(local_accepts.load(), 0u);
  EXPECT_GT(claims_accepted, 0u);
  EXPECT_EQ(ledger.admitted_count(), local_accepts.load() + claims_accepted);
}

}  // namespace
}  // namespace rota::service
