// rota_served: the admission daemon.
//
// Wraps an AdmissionService (PlanningKernel + bounded admission queue +
// per-request planning budget) behind the framed socket protocol of
// rota/service/server.hpp. Pair it with rota_load for a closed-loop driver.
//
//   ./build/examples/rota_served --socket /tmp/rota.sock
//   ./build/examples/rota_served --tcp 7341 --lanes 4 --queue 128
//
// SIGINT/SIGTERM trigger the clean drain: stop accepting, half-close the
// sessions, answer everything already queued, join the dispatcher, exit. The exit
// code is non-zero if any revalidation failed (an accept the live residual
// refused at commit — must never happen).
//
// Set ROTA_TRACE=/path/trace.json to record a Chrome trace of the run
// (batch.round spans with plan.speculate / plan.commit inside; load it in
// chrome://tracing or Perfetto). Its metrics dump holds the global registry
// (plan.*, ledger.*) merged with the service's own service.* snapshot.
#include <atomic>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "rota/obs/obs.hpp"
#include "rota/service/federation.hpp"
#include "rota/service/server.hpp"
#include "rota/workload/generator.hpp"

namespace {

std::atomic<int> g_signal{0};

void on_signal(int sig) { g_signal.store(sig, std::memory_order_relaxed); }

constexpr std::uint64_t kMaxPort = 65535;
constexpr std::uint64_t kMaxCount = 1'000'000'000;

/// `text` as a whole decimal number in [lo, hi]; nullopt when it is not one.
std::optional<std::uint64_t> parse_number(const std::string& text, std::uint64_t lo,
                                          std::uint64_t hi) {
  std::uint64_t n = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, n);
  if (ec != std::errc() || stop != end || n < lo || n > hi) return std::nullopt;
  return n;
}

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --socket PATH    unix socket to listen on (default /tmp/rota_admission.sock)\n"
      << "  --tcp PORT       also listen on loopback TCP (0 = ephemeral)\n"
      << "  --lanes N        planning threads per round (default 2)\n"
      << "  --queue N        admission queue capacity (default 64)\n"
      << "  --budget-us N    default planning budget per request (default 20000)\n"
      << "  --locations N    supply topology size, must match the client (default 4)\n"
      << "  --horizon T      supply horizon in ticks (default 100000)\n"
      << "  --seed S         supply/workload seed, must match the client (default 2026)\n"
      << "federation (all daemons must share --locations/--seed):\n"
      << "  --node-id N      this daemon's cluster node id (required to federate)\n"
      << "  --peer-listen A  peer listener, unix:<path> or tcp:<port>\n"
      << "  --peer ID=ADDR   a peer daemon (repeatable), e.g. 1=unix:/tmp/rota-1.peer\n"
      << "  --site NAME      this daemon's location (default l1)\n"
      << "  --secret TOKEN   shared session secret for clients and peers\n"
      << "                   (default: ROTA_SERVICE_SECRET env, empty = open)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rota;
  using namespace rota::service;

  std::string socket_path = "/tmp/rota_admission.sock";
  bool tcp = false;
  std::uint16_t tcp_port = 0;
  ServiceConfig config;
  std::size_t locations = 4;
  Tick horizon = 100'000;
  std::uint64_t seed = 2026;

  bool federate = false;
  FederationConfig fconfig;
  fconfig.site = "l1";
  std::string secret;
  if (const char* env = std::getenv("ROTA_SERVICE_SECRET")) secret = env;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(usage(argv[0]));
      }
      return argv[++i];
    };
    // A numeric flag outside its range is a usage error, never a wrapped or
    // defaulted value.
    const auto number = [&](std::uint64_t lo, std::uint64_t hi) {
      const std::string text = value();
      const std::optional<std::uint64_t> n = parse_number(text, lo, hi);
      if (!n) {
        std::cerr << arg << " needs a whole number in [" << lo << ", " << hi
                  << "], got '" << text << "'\n";
        std::exit(usage(argv[0]));
      }
      return *n;
    };
    if (arg == "--socket") socket_path = value();
    else if (arg == "--tcp") { tcp = true; tcp_port = static_cast<std::uint16_t>(number(0, kMaxPort)); }
    else if (arg == "--lanes") config.lanes = number(1, kMaxCount);
    else if (arg == "--queue") config.queue_capacity = number(1, kMaxCount);
    else if (arg == "--budget-us") config.default_budget_us = number(0, kMaxCount);
    else if (arg == "--locations") locations = number(1, kMaxCount);
    else if (arg == "--horizon") horizon = static_cast<Tick>(number(1, kMaxCount));
    else if (arg == "--seed") seed = number(0, UINT64_MAX);
    else if (arg == "--node-id") {
      federate = true;
      fconfig.transport.local = static_cast<cluster::NodeId>(number(0, UINT32_MAX));
    }
    else if (arg == "--peer-listen") { federate = true; fconfig.transport.listen = value(); }
    else if (arg == "--peer") {
      federate = true;
      const std::string spec = value();
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos) {
        std::cerr << "--peer needs ID=ADDR, got " << spec << "\n";
        return usage(argv[0]);
      }
      const std::optional<std::uint64_t> id =
          parse_number(spec.substr(0, eq), 0, UINT32_MAX);
      if (!id) {
        std::cerr << "--peer needs a numeric ID, got " << spec << "\n";
        return usage(argv[0]);
      }
      fconfig.transport.peers[static_cast<cluster::NodeId>(*id)] = spec.substr(eq + 1);
    }
    else if (arg == "--site") fconfig.site = value();
    else if (arg == "--secret") secret = value();
    else return usage(argv[0]);
  }

  // Supply: the workload generator's base topology, so a client built from
  // the same --locations/--seed names the same located types.
  WorkloadConfig wconfig;
  wconfig.seed = seed;
  wconfig.num_locations = locations;
  WorkloadGenerator gen(wconfig, CostModel{});
  CommitmentLedger ledger(gen.base_supply(TimeInterval(0, horizon)));

  const std::optional<std::string> trace_path = obs::trace_path_from_env();
  std::optional<obs::TraceRecorder> recorder;
  if (trace_path) {
    obs::enable_metrics(true);
    recorder.emplace();
    recorder->install();
  }

  // Handlers go in before anything can accept work: the server listens from
  // its constructor on, and a signal from then on must drain, not kill. One
  // that lands earlier just makes the loop below exit at once.
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  AdmissionService service(ledger, gen.phi(), config);

  std::unique_ptr<FederatedService> federation;
  if (federate) {
    fconfig.transport.secret = secret;
    federation = std::make_unique<FederatedService>(service, fconfig);
  }

  ServerConfig sconfig;
  sconfig.unix_path = socket_path;
  sconfig.tcp = tcp;
  sconfig.tcp_port = tcp_port;
  sconfig.secret = secret;
  ServiceServer::SubmitFn submit;
  if (federation) {
    submit = [&federation](AdmitRequest request,
                           AdmissionService::ResponseFn done) {
      federation->submit(std::move(request), std::move(done));
    };
  }
  ServiceServer server(service, sconfig, std::move(submit));

  std::cout << "rota_served: listening on " << socket_path;
  if (tcp) std::cout << " and tcp 127.0.0.1:" << server.tcp_port();
  std::cout << "  (lanes " << config.lanes << ", queue " << config.queue_capacity
            << ", budget " << config.default_budget_us << "us)";
  if (federation) {
    std::cout << "\nrota_served: federating as node "
              << fconfig.transport.local << " at " << fconfig.site;
    if (!fconfig.transport.listen.empty()) {
      std::cout << ", peers reach me at " << fconfig.transport.listen;
    }
    std::cout << ", " << fconfig.transport.peers.size() << " peer(s)";
  }
  std::cout << "\n" << std::flush;

  while (g_signal.load(std::memory_order_relaxed) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::cout << "rota_served: signal " << g_signal.load()
            << " — draining...\n" << std::flush;
  // Federation first (pending forwards get final answers through the still-
  // writable sessions), then the server's clean drain of everything queued.
  if (federation) federation->stop();
  server.stop();  // clean drain: every queued request is answered

  const obs::MetricsSnapshot stats = service.stats();
  const auto count = [&stats](const char* name) { return stats.counter(name); };
  std::cout << "rota_served: served " << count("service.requests")
            << " requests (" << count("service.accepted") << " accepted, "
            << count("service.rejected") << " rejected, "
            << count("service.shed_queue") + count("service.shed_budget")
            << " shed), max queue depth " << stats.gauges.at("service.max_queue_depth")
            << "\n";
  if (federation) {
    std::cout << "rota_served: federation forwarded " << count("service.forwarded")
              << " (" << count("service.forward_accepts") << " peer-accepted, "
              << count("service.forward_rejects") << " rejected), served "
              << count("service.peer_claims") << " peer claims\n";
  }

  if (recorder) {
    // The global registry (planning kernel, ledger) and the service's own.
    obs::MetricsSnapshot metrics = obs::MetricsRegistry::global().snapshot();
    metrics.counters.insert(stats.counters.begin(), stats.counters.end());
    metrics.gauges.insert(stats.gauges.begin(), stats.gauges.end());
    metrics.histograms.insert(stats.histograms.begin(), stats.histograms.end());
    recorder->uninstall();
    if (recorder->write_chrome_json(*trace_path, &metrics)) {
      std::cout << "rota_served: wrote trace to " << *trace_path << "\n";
    }
  }

  if (const std::uint64_t failed = count("service.revalidations_failed")) {
    std::cerr << "rota_served: FATAL — " << failed
              << " accepts were refused by the live residual at commit\n";
    return 1;
  }
  std::cout << "rota_served: clean drain complete\n";
  return 0;
}
