// rota_load: a closed-loop load driver for the admission daemon.
//
//   ./build/examples/rota_load --socket /tmp/rota.sock --connections 4 --seconds 5
//
// Each connection runs its own closed loop: draw a computation from the
// workload generator (same --locations/--seed topology as the daemon, so the
// requirements name the daemon's supply), send, wait for the decision,
// repeat. Per-decision verdicts and client-observed round-trip latencies are
// aggregated across connections and printed at the end.
//
// Exit codes: 0 on a clean run (protocol intact; the daemon answering —
// including with kOverloaded sheds — is a *successful* load test), 1 on
// protocol errors or zero completed requests.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "rota/service/client.hpp"
#include "rota/workload/generator.hpp"

namespace {

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
  std::cerr << "usage: " << argv0 << " [options]\n"
            << "  --socket PATH     daemon unix socket (default /tmp/rota_admission.sock)\n"
            << "  --tcp PORT        connect over loopback TCP instead\n"
            << "  --connections N   concurrent closed loops (default 2)\n"
            << "  --seconds S       run duration (default 5)\n"
            << "  --budget-us N     per-request planning budget (0 = server default)\n"
            << "  --locations N     topology size, must match the daemon (default 4)\n"
            << "  --seed S          workload seed base, must match the daemon (default 2026)\n"
            << "  --secret TOKEN    session token the daemon expects\n"
            << "                    (default: ROTA_SERVICE_SECRET env, empty = none)\n";
  return 2;
}

struct Totals {
  std::mutex mutex;
  std::uint64_t accepted = 0, rejected = 0, overloaded = 0, errors = 0;
  std::vector<std::uint64_t> rtt_ns;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace rota;
  using namespace rota::service;

  std::string socket_path = "/tmp/rota_admission.sock";
  bool tcp = false;
  std::uint16_t tcp_port = 0;
  std::size_t connections = 2;
  double seconds = 5.0;
  std::uint64_t budget_us = 0;
  std::size_t locations = 4;
  std::uint64_t seed = 2026;
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
    else if (arg == "--connections") connections = number(1, kMaxCount);
    else if (arg == "--seconds") {
      const std::string text = value();
      char* stop = nullptr;
      seconds = std::strtod(text.c_str(), &stop);
      if (stop != text.c_str() + text.size() || !(seconds > 0) ||
          seconds > static_cast<double>(kMaxCount)) {
        std::cerr << "--seconds needs a positive number, got '" << text << "'\n";
        return usage(argv[0]);
      }
    }
    else if (arg == "--budget-us") budget_us = number(0, kMaxCount);
    else if (arg == "--locations") locations = number(1, kMaxCount);
    else if (arg == "--seed") seed = number(0, UINT64_MAX);
    else if (arg == "--secret") secret = value();
    else return usage(argv[0]);
  }

  Totals totals;
  std::atomic<std::uint64_t> next_tick{0};
  const auto stop_at = std::chrono::steady_clock::now() +
                       std::chrono::duration<double>(seconds);

  std::vector<std::thread> loops;
  for (std::size_t c = 0; c < connections; ++c) {
    loops.emplace_back([&, c] {
      // Distinct per-connection seeds: distinct computations, one topology.
      WorkloadConfig wconfig;
      wconfig.seed = seed + 1 + c;
      wconfig.num_locations = locations;
      WorkloadGenerator gen(wconfig, CostModel{});
      std::uint64_t local_accepted = 0, local_rejected = 0, local_overloaded = 0;
      std::vector<std::uint64_t> local_rtt;
      try {
        ClientOptions options;
        options.token = secret;
        ServiceClient client =
            tcp ? ServiceClient::connect_tcp(tcp_port, options)
                : ServiceClient::connect_unix(socket_path, options);
        std::uint64_t id = c * 10'000'000;
        while (std::chrono::steady_clock::now() < stop_at) {
          AdmitRequest request;
          request.id = ++id;
          request.at = static_cast<Tick>(
              next_tick.fetch_add(1, std::memory_order_relaxed) % 50'000);
          request.budget_us = budget_us;
          request.computation = gen.make_computation(request.at);
          const auto t0 = std::chrono::steady_clock::now();
          const AdmitResponse response = client.call(request);
          local_rtt.push_back(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count()));
          switch (response.verdict) {
            case Verdict::kAccepted: ++local_accepted; break;
            case Verdict::kRejected: ++local_rejected; break;
            case Verdict::kOverloaded: ++local_overloaded; break;
          }
        }
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(totals.mutex);
        ++totals.errors;
        std::cerr << "connection " << c << ": " << e.what() << "\n";
      }
      std::lock_guard<std::mutex> lock(totals.mutex);
      totals.accepted += local_accepted;
      totals.rejected += local_rejected;
      totals.overloaded += local_overloaded;
      totals.rtt_ns.insert(totals.rtt_ns.end(), local_rtt.begin(), local_rtt.end());
    });
  }
  for (auto& t : loops) t.join();

  std::sort(totals.rtt_ns.begin(), totals.rtt_ns.end());
  const auto quantile = [&](double p) -> double {
    if (totals.rtt_ns.empty()) return 0.0;
    const std::size_t i = std::min(
        totals.rtt_ns.size() - 1,
        static_cast<std::size_t>(p * static_cast<double>(totals.rtt_ns.size())));
    return static_cast<double>(totals.rtt_ns[i]) / 1e6;
  };
  const std::uint64_t total =
      totals.accepted + totals.rejected + totals.overloaded;
  std::cout << "rota_load: " << total << " requests over " << seconds << "s ("
            << totals.accepted << " accepted, " << totals.rejected
            << " rejected, " << totals.overloaded << " overloaded)\n"
            << "rota_load: round-trip p50 " << quantile(0.50) << "ms  p99 "
            << quantile(0.99) << "ms\n";

  if (totals.errors != 0 || total == 0) {
    std::cerr << "rota_load: FAILED (" << totals.errors << " connection errors, "
              << total << " completed requests)\n";
    return 1;
  }
  return 0;
}
