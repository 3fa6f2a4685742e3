// E20: live federation — two admission daemons over real unix sockets.
//
// Node A has no supply at its site (every local admission rejects and
// federates); node B has ample supply. The split workload is N forwardable
// requests at A — each must travel probe/offer/claim over the SocketTransport
// and commit into B's live ledger — plus N locally-feasible requests at B,
// admitted by B's planning lanes while it is also serving A's claims. The
// artifact (BENCH_federation.json; argv[1] redirects) records the forward
// round-trip latency distribution and the safety counters.
//
// Acceptance (exit 1 on violation, artifact not written):
//   * every forward is peer-accepted (A's supply-less site never strands a
//     feasible job);
//   * B committed exactly one claim per forward;
//   * revalidations_failed == 0 on both services — a peer claim is
//     re-validated against the live residual exactly like a local accept;
//   * both daemons drain cleanly, federation first.
//
// Latency percentiles are printed and recorded for trend reading but never
// gated: a forward crosses two pump cadences and a socket, all host noise.
//
// --smoke shrinks the split (16+16 requests) for CI.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "rota/service/federation.hpp"

namespace {

using namespace rota;
using namespace rota::service;
using Clock = std::chrono::steady_clock;

std::size_t host_cpus() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

std::string socket_path(const char* tag) {
  return "/tmp/rota_e20_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

/// One daemon: live ledger, admission service, federation driver.
struct Daemon {
  Daemon(Location site, ResourceSet supply, cluster::NodeId id,
         const std::string& listen_path, cluster::NodeId peer_id,
         const std::string& peer_path)
      : ledger(std::move(supply)), service(ledger, CostModel{}, config()) {
    FederationConfig fconfig;
    fconfig.site = site.name();
    fconfig.transport.local = id;
    fconfig.transport.listen = "unix:" + listen_path;
    fconfig.transport.peers[peer_id] = "unix:" + peer_path;
    fconfig.transport.tick_ms = 20;
    // A gossips before B's listener exists; don't let that failed connect's
    // backoff swallow the one-shot probe sends (default backoff 500 ms would
    // outlive the 80 ms probe timeout).
    fconfig.transport.reconnect_backoff_ms = 25;
    fconfig.pump_interval_ms = 2;
    federation = std::make_unique<FederatedService>(service, fconfig);
  }

  static ServiceConfig config() {
    ServiceConfig c;
    c.lanes = 2;
    c.queue_capacity = 256;
    return c;
  }

  CommitmentLedger ledger;
  AdmissionService service;
  std::unique_ptr<FederatedService> federation;
};

AdmitRequest make_request(std::uint64_t id, Location home) {
  AdmitRequest request;
  request.id = id;
  request.budget_us = 10'000'000;
  ActorComputation actor =
      ActorComputationBuilder("e20-actor-" + std::to_string(id), home)
          .evaluate(5)
          .ready()
          .build();
  request.computation = DistributedComputation(
      "e20-job-" + std::to_string(id), {actor}, 0, 100'000);
  return request;
}

double percentile(std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  const std::size_t i = static_cast<std::size_t>(
      p * static_cast<double>(sorted_ms.size() - 1));
  return sorted_ms[i];
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_federation.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") smoke = true;
    else json_path = arg;
  }
  const std::size_t n = smoke ? 16 : 64;

  const Location site_a("e20-starved"), site_b("e20-ample");
  const std::string path_a = socket_path("a");
  const std::string path_b = socket_path("b");
  ResourceSet ample;
  ample.add(100, TimeInterval(0, 200'000), LocatedType::cpu(site_b));

  Daemon a(site_a, ResourceSet{}, 0, path_a, 1, path_b);
  Daemon b(site_b, std::move(ample), 1, path_b, 0, path_a);

  const auto bench_start = Clock::now();

  // The split: A's half federates (one future per forward so round-trip
  // latency is per-request), B's half is decided locally in parallel.
  struct Forward {
    Clock::time_point sent;
    std::future<AdmitResponse> response;
    double ms = 0.0;
  };
  std::vector<Forward> forwards(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    auto promise = std::make_shared<std::promise<AdmitResponse>>();
    forwards[i].response = promise->get_future();
    forwards[i].sent = Clock::now();
    a.federation->submit(make_request(i + 1, site_a),
                         [promise](const AdmitResponse& r) {
                           promise->set_value(r);
                         });
  }
  std::size_t local_accepted = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    auto promise = std::make_shared<std::promise<AdmitResponse>>();
    auto future = promise->get_future();
    b.federation->submit(make_request(1000 + i, site_b),
                         [promise](const AdmitResponse& r) {
                           promise->set_value(r);
                         });
    if (future.get().verdict == Verdict::kAccepted) ++local_accepted;
  }

  std::size_t forward_accepted = 0;
  std::vector<double> latencies_ms;
  for (Forward& f : forwards) {
    const AdmitResponse response = f.response.get();
    f.ms = std::chrono::duration<double, std::milli>(Clock::now() - f.sent)
               .count();
    latencies_ms.push_back(f.ms);
    if (response.verdict == Verdict::kAccepted &&
        response.strategy == "federated") {
      ++forward_accepted;
    }
  }
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - bench_start).count();

  // The daemon shutdown order: federation first, then each service drains.
  a.federation->stop();
  b.federation->stop();
  a.service.drain_and_stop();
  b.service.drain_and_stop();
  const obs::MetricsSnapshot sa = a.service.stats();
  const obs::MetricsSnapshot sb = b.service.stats();
  const std::uint64_t forwarded = sa.counter("service.forwarded");
  const std::uint64_t forward_accepts = sa.counter("service.forward_accepts");
  const std::uint64_t forward_rejects = sa.counter("service.forward_rejects");
  const std::uint64_t peer_claims = sb.counter("service.peer_claims");
  const std::uint64_t revalidations = sa.counter("service.revalidations_failed") +
                                      sb.counter("service.revalidations_failed");

  std::sort(latencies_ms.begin(), latencies_ms.end());
  const double p50 = percentile(latencies_ms, 0.50);
  const double p99 = percentile(latencies_ms, 0.99);
  const double max_ms = latencies_ms.empty() ? 0.0 : latencies_ms.back();

  std::printf("e20_federation: %zu forwards (%zu peer-accepted), "
              "%zu/%zu local at B, %llu peer claims\n",
              n, forward_accepted, local_accepted, n,
              static_cast<unsigned long long>(peer_claims));
  std::printf("forward round trip: p50 %.2fms  p99 %.2fms  max %.2fms\n",
              p50, p99, max_ms);

  if (forward_accepted != n) {
    std::cerr << "FATAL: only " << forward_accepted << "/" << n
              << " forwards were peer-accepted\n";
    return 1;
  }
  if (forwarded != n || forward_accepts != n || forward_rejects != 0) {
    std::cerr << "FATAL: forward accounting off (forwarded " << forwarded
              << ", accepts " << forward_accepts << ", rejects "
              << forward_rejects << ")\n";
    return 1;
  }
  if (peer_claims != n) {
    std::cerr << "FATAL: B committed " << peer_claims
              << " peer claims, expected " << n << "\n";
    return 1;
  }
  if (local_accepted != n) {
    std::cerr << "FATAL: only " << local_accepted << "/" << n
              << " local requests were accepted at B\n";
    return 1;
  }
  if (revalidations != 0) {
    std::cerr << "FATAL: " << revalidations
              << " peer claim(s) were refused by the live residual\n";
    return 1;
  }

  std::ofstream out(json_path);
  out << "{\n  \"bench\": \"e20_federation\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"host_cpus\": " << host_cpus() << ",\n"
      << "  \"nodes\": 2,\n"
      << "  \"forwarded\": " << forwarded << ",\n"
      << "  \"forward_accepts\": " << forward_accepts << ",\n"
      << "  \"forward_rejects\": " << forward_rejects << ",\n"
      << "  \"peer_claims\": " << peer_claims << ",\n"
      << "  \"local_requests\": " << n << ",\n"
      << "  \"local_accepted\": " << local_accepted << ",\n"
      << "  \"revalidations_failed\": " << revalidations << ",\n"
      << "  \"forward_p50_ms\": " << p50 << ",\n"
      << "  \"forward_p99_ms\": " << p99 << ",\n"
      << "  \"forward_max_ms\": " << max_ms << ",\n"
      << "  \"elapsed_seconds\": " << elapsed_s << "\n}\n";
  if (!out.good()) {
    std::cerr << "ERROR: could not write " << json_path << "\n";
    return 1;
  }
  std::cout << "wrote " << json_path << "\n";
  return 0;
}
