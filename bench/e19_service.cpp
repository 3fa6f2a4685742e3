// E19: admission-as-a-service under load — the bounded queue and the
// per-request planning budget.
//
// Two load shapes against the in-process AdmissionService (the daemon core;
// the socket layer adds nothing to planning latency worth benchmarking here),
// one artifact (BENCH_service_latency.json; pass a path as argv[1] to
// redirect):
//
//   light — an open-loop trickle (diurnal pattern, wall-clock gaps far wider
//     than planning time). Nothing is shed. The phase is replayed through a
//     sequential RotaAdmissionController over the same supply: the service
//     decides in FCFS rounds, so every verdict must match
//     (light.referee_mismatches == 0), and the FNV-1a 64 digest over id and
//     verdict in arrival order (light.decision_digest) must equal the pin
//     beside kLightSeed. A deliberate decision change re-pins it.
//
//   flash — a flash crowd: producers flood requests far faster than the
//     lanes can plan. The bounded queue must shed (kOverloaded, never
//     silence), the queue depth must stay within its bound, and the p99
//     planning latency of *served* requests must stay within the SLO —
//     overload costs the shed requests an answer of "overloaded", never the
//     served ones a slow decision.
//
//   calm  — a slow tail after the crowd, arriving past the flash's last
//     tick: once the queue has drained, the phase must admit something.
//
// Safety gate, every phase: service.revalidations_failed == 0 — every accept
// carried a plan the live residual covered at commit. Any violation is fatal
// (exit 1) and the artifact is not written.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "rota/admission/controller.hpp"
#include "rota/cluster/cluster.hpp"
#include "rota/service/service.hpp"
#include "rota/workload/generator.hpp"

namespace {

using namespace rota;
using namespace rota::service;

constexpr Tick kHorizon = 4000;
constexpr std::uint64_t kLightSeed = 2026;
// Light-phase decision digests for kLightSeed, per run size.
constexpr const char* kLightSmokeDigest = "4174f46267fa6511";
constexpr const char* kLightFullDigest = "96756d67da0f8bde";

WorkloadGenerator make_generator(std::uint64_t seed) {
  WorkloadConfig config;
  config.seed = seed;
  config.num_locations = 4;
  config.laxity = 3.0;
  return WorkloadGenerator(config, CostModel{});
}

/// Collects streamed decisions and lets the driver await the full count.
struct Collector {
  void on_response(const AdmitResponse& response) {
    std::lock_guard<std::mutex> lock(mutex);
    responses.push_back(response);
    all_in.notify_all();
  }
  void await(std::size_t expected) {
    std::unique_lock<std::mutex> lock(mutex);
    all_in.wait(lock, [&] { return responses.size() >= expected; });
  }
  std::size_t with_verdict(Verdict v) const {
    std::size_t n = 0;
    for (const auto& r : responses) {
      if (r.verdict == v) ++n;
    }
    return n;
  }

  std::mutex mutex;
  std::condition_variable all_in;
  std::vector<AdmitResponse> responses;
};

std::uint64_t max_queue_depth(const obs::MetricsSnapshot& stats) {
  return static_cast<std::uint64_t>(stats.gauges.at("service.max_queue_depth"));
}

struct PhaseReport {
  std::size_t requests = 0;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::size_t shed = 0;
  std::uint64_t p99_planning_ns = 0;
  std::uint64_t max_queue_depth = 0;
  // Light phase only: verdicts that differ from the sequential referee, and
  // the digest of the served verdicts.
  std::size_t referee_mismatches = 0;
  std::string decision_digest;
};

PhaseReport report_of(const Collector& collected,
                      const obs::MetricsSnapshot& stats) {
  PhaseReport r;
  r.requests = collected.responses.size();
  r.accepted = collected.with_verdict(Verdict::kAccepted);
  r.rejected = collected.with_verdict(Verdict::kRejected);
  r.shed = collected.with_verdict(Verdict::kOverloaded);
  r.p99_planning_ns =
      stats.histograms.at("service.planning_ns").quantile_upper_bound(0.99);
  r.max_queue_depth = max_queue_depth(stats);
  return r;
}

void print_phase(const char* name, const PhaseReport& r) {
  std::printf(
      "%-6s %5zu req  %4zu acc  %4zu rej  %4zu shed  p99 %.2fms  maxq %llu\n",
      name, r.requests, r.accepted, r.rejected, r.shed,
      static_cast<double>(r.p99_planning_ns) / 1e6,
      static_cast<unsigned long long>(r.max_queue_depth));
}

void write_phase(std::ofstream& out, const char* name, const PhaseReport& r,
                 bool trailing_comma) {
  out << "  \"" << name << "\": {\"requests\": " << r.requests
      << ", \"accepted\": " << r.accepted << ", \"rejected\": " << r.rejected
      << ", \"shed\": " << r.shed
      << ", \"p99_planning_ns\": " << r.p99_planning_ns
      << ", \"max_queue_depth\": " << r.max_queue_depth;
  if (!r.decision_digest.empty()) {
    out << ", \"referee_mismatches\": " << r.referee_mismatches
        << ", \"decision_digest\": \"" << r.decision_digest << "\"";
  }
  out << "}" << (trailing_comma ? "," : "") << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << "== E19: admission service latency under load ==\n\n";
  std::string json_path = "BENCH_service_latency.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      json_path = arg;
    }
  }

  const std::uint64_t slo_ns = 20'000'000;  // 20 ms served-request p99 target

  // ---- Phase 1: light load ------------------------------------------------
  // Diurnal trickle, ~2ms wall-clock between arrivals: orders of magnitude
  // wider than planning, so the queue never fills.
  const std::size_t light_n = smoke ? 120 : 600;
  PhaseReport light;
  {
    WorkloadGenerator gen = make_generator(kLightSeed);
    const ResourceSet supply = gen.base_supply(TimeInterval(0, kHorizon));
    CommitmentLedger ledger(supply);
    ServiceConfig config;
    config.lanes = 2;
    config.queue_capacity = 64;
    config.default_budget_us = 20'000;
    AdmissionService svc(ledger, gen.phi(), config);

    ArrivalPattern pattern;
    pattern.base_mean_interarrival = 4.0;
    pattern.diurnal_amplitude = 0.5;
    pattern.diurnal_period = kHorizon / 2;
    std::vector<Arrival> arrivals = gen.make_arrivals(kHorizon, pattern);
    if (arrivals.size() > light_n) arrivals.resize(light_n);

    Collector collected;
    std::uint64_t id = 0;
    for (const Arrival& a : arrivals) {
      AdmitRequest request;
      request.id = ++id;
      request.at = a.at;
      request.computation = a.computation;
      svc.submit(std::move(request),
                 [&collected](const AdmitResponse& r) { collected.on_response(r); });
      // Open loop: the tick gap mapped to wall clock (0.5ms per tick at mean
      // gap 4 ticks ≈ 2ms between arrivals).
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    collected.await(arrivals.size());
    light = report_of(collected, svc.stats());
    svc.drain_and_stop();
    if (svc.stats().counter("service.revalidations_failed") != 0) {
      std::cerr << "FATAL: light phase revalidation failures\n";
      return 1;
    }

    // The referee: the same arrivals, decided one at a time.
    std::vector<Verdict> served(arrivals.size());
    for (const AdmitResponse& r : collected.responses) served[r.id - 1] = r.verdict;
    RotaAdmissionController referee(gen.phi(), supply);
    std::string log;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      const bool accepted =
          referee.request(arrivals[i].computation, arrivals[i].at).accepted;
      if ((served[i] == Verdict::kAccepted) != accepted) ++light.referee_mismatches;
      log += std::to_string(i + 1) + ' ' + verdict_name(served[i]) + '\n';
    }
    light.decision_digest = cluster::decision_digest(log);
  }
  print_phase("light", light);
  std::printf("light  referee mismatches %zu, decision digest %s\n",
              light.referee_mismatches, light.decision_digest.c_str());
  if (light.shed != 0) {
    std::cerr << "FATAL: light load shed " << light.shed << " requests\n";
    return 1;
  }
  if (light.referee_mismatches != 0) {
    std::cerr << "FATAL: " << light.referee_mismatches
              << " light-phase verdicts differ from the sequential referee\n";
    return 1;
  }
  const std::string pinned = smoke ? kLightSmokeDigest : kLightFullDigest;
  if (light.decision_digest != pinned) {
    std::cerr << "FATAL: light-phase decision digest " << light.decision_digest
              << " differs from the pin " << pinned << "\n";
    return 1;
  }

  // ---- Phase 2: flash crowd ----------------------------------------------
  // Producers flood the queue far faster than two lanes can plan: the queue
  // bound turns the excess into explicit sheds.
  const std::size_t flash_n = smoke ? 600 : 3000;
  PhaseReport flash;
  PhaseReport calm;
  std::uint64_t revalidations = 0;
  {
    WorkloadGenerator gen = make_generator(2027);
    CommitmentLedger ledger(gen.base_supply(TimeInterval(0, kHorizon)));
    ServiceConfig config;
    config.lanes = 2;
    config.queue_capacity = 64;
    config.default_budget_us = 20'000;
    AdmissionService svc(ledger, gen.phi(), config);

    // The flash crowd itself: a pattern whose flash window covers the whole
    // burst, realized as 4 producers submitting back-to-back.
    ArrivalPattern pattern;
    pattern.base_mean_interarrival = 4.0;
    pattern.flash_multiplier = 50.0;
    pattern.flash_at = 0;
    pattern.flash_duration = 400;
    std::vector<Arrival> arrivals = gen.make_arrivals(kHorizon, pattern);
    while (arrivals.size() < flash_n) {
      std::vector<Arrival> more = gen.make_arrivals(kHorizon, pattern);
      arrivals.insert(arrivals.end(), more.begin(), more.end());
    }
    arrivals.resize(flash_n);

    Collector collected;
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < 4; ++p) {
      producers.emplace_back([&] {
        for (;;) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= arrivals.size()) return;
          AdmitRequest request;
          request.id = static_cast<std::uint64_t>(i) + 1;
          request.at = arrivals[i].at;
          request.computation = arrivals[i].computation;
          svc.submit(std::move(request), [&collected](const AdmitResponse& r) {
            collected.on_response(r);
          });
        }
      });
    }
    for (auto& t : producers) t.join();
    collected.await(arrivals.size());
    flash = report_of(collected, svc.stats());

    // ---- Phase 3: calm tail — admission resumes once the queue drains ------
    // Calm arrivals come after the flash's last arrival tick, one base gap
    // apart. Reusing the flash's own ticks would ask again for supply the
    // flash's accepts already hold, and the phase would reject everything.
    const std::size_t calm_n = smoke ? 40 : 72;
    const Tick calm_gap = static_cast<Tick>(pattern.base_mean_interarrival);
    Tick calm_at = 0;
    for (const Arrival& a : arrivals) calm_at = std::max(calm_at, a.at);
    Collector calm_collected;
    const std::uint64_t depth_before_calm = max_queue_depth(svc.stats());
    for (std::size_t i = 0; i < calm_n; ++i) {
      calm_at += calm_gap;
      AdmitRequest request;
      request.id = 1'000'000 + i;
      request.at = calm_at;
      request.computation = gen.make_computation(request.at);
      svc.submit(std::move(request), [&calm_collected](const AdmitResponse& r) {
        calm_collected.on_response(r);
      });
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
    calm_collected.await(calm_n);
    calm = report_of(calm_collected, svc.stats());
    calm.max_queue_depth = depth_before_calm;

    svc.drain_and_stop();
    revalidations = svc.stats().counter("service.revalidations_failed");
  }
  print_phase("flash", flash);
  print_phase("calm", calm);
  std::printf("revalidations failed: %llu\n",
              static_cast<unsigned long long>(revalidations));

  // ---- Acceptance checks --------------------------------------------------
  if (revalidations != 0) {
    std::cerr << "FATAL: an accept was refused by the live residual at commit\n";
    return 1;
  }
  if (flash.shed == 0) {
    std::cerr << "FATAL: flash crowd was not shed (queue bound ineffective)\n";
    return 1;
  }
  if (flash.max_queue_depth > 64) {
    std::cerr << "FATAL: queue depth " << flash.max_queue_depth
              << " exceeded its bound\n";
    return 1;
  }
  if (flash.p99_planning_ns > slo_ns) {
    std::cerr << "FATAL: served-request p99 " << flash.p99_planning_ns
              << "ns exceeded the " << slo_ns << "ns SLO\n";
    return 1;
  }
  if (calm.accepted == 0) {
    std::cerr << "FATAL: calm phase accepted none of its " << calm.requests
              << " requests\n";
    return 1;
  }

  std::ofstream out(json_path);
  out << "{\n  \"bench\": \"e19_service\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"slo_ns\": " << slo_ns << ",\n"
      << "  \"queue_capacity\": 64,\n";
  write_phase(out, "light", light, true);
  write_phase(out, "flash", flash, true);
  write_phase(out, "calm", calm, true);
  out << "  \"revalidations_failed\": " << revalidations << "\n}\n";
  if (!out.good()) {
    std::cerr << "ERROR: could not write " << json_path << "\n";
    return 1;
  }
  std::cout << "\nwrote " << json_path << "\n";
  return 0;
}
