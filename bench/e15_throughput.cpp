// E15: batched-admission throughput — requests/sec of the parallel
// BatchAdmissionController at 1/2/4/8 planning lanes against the sequential
// RotaAdmissionController on the same heavy FCFS workload, with
// decision-for-decision parity asserted inline. Writes the first entry of
// the bench trajectory: BENCH_admission_throughput.json (pass a path as
// argv[1] to redirect).
//
// Pass --trace-out=PATH (or set ROTA_TRACE=PATH) to additionally run one
// traced batch(8) pass AFTER the timed trials and write a Chrome-trace JSON
// artifact (spans plus a metrics dump) to PATH — load it in Perfetto or
// chrome://tracing. The timed trials always run untraced so the numbers in
// the bench JSON are never polluted by the observability layer.
//
// The artifact pins the decisions themselves as "decision_digest": FNV-1a 64
// over the sequential decision log (index, verdict, full plan), the encoding
// perfbench's batch_replay digest uses, so the full run reads the digest
// perfbench/SPEC.json pins.
//
// --smoke shrinks the workload (horizon 1200, lanes 1/2/4) for CI: the full
// parity machinery runs in seconds. The JSON artifact is refused when the
// benched lane count exceeds the host's usable cpus — an oversubscribed
// scaling curve is noise — unless --force is passed, which stamps the
// artifact with an explanatory note instead.
//
// The workload is an over-subscribed open system: 8 locations (8 cpu types +
// 56 directed links), constant base supply fragmented by ~2k churned peer
// terms with bounded lifetimes, and ~5k deadline-constrained computations
// arriving at ~1/tick — far beyond capacity, so admission decisions are
// dominated by rejections, the regime the optimistic pipeline is built for.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "rota/admission/controller.hpp"
#include "rota/computation/requirement.hpp"
#include "rota/obs/obs.hpp"
#include "rota/runtime/batch_controller.hpp"
#include "rota/workload/generator.hpp"

namespace {

using namespace rota;

/// hardware_concurrency() honors the process's cpu affinity mask, so under a
/// cgroup-pinned CI container it reports the *usable* lanes (possibly 1).
std::size_t host_cpus() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

/// Physical processors online on the host, affinity-mask-independent where
/// the platform exposes it. Recording both makes a flat scaling curve
/// readable: host_cpus == 1 with host_cpus_online == 64 says "pinned
/// container", not "the pipeline stopped scaling".
std::size_t host_cpus_online() {
#if defined(_SC_NPROCESSORS_ONLN)
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  if (n > 0) return static_cast<std::size_t>(n);
#endif
  return host_cpus();
}

struct Measurement {
  std::string controller;
  std::size_t threads = 1;
  std::size_t requests = 0;
  std::size_t accepted = 0;
  double seconds = 0.0;
  double requests_per_sec = 0.0;
  double speedup = 0.0;             // vs the sequential controller
  double scaling_efficiency = 0.0;  // speedup / threads
};

struct Workload {
  ResourceSet supply;
  std::vector<BatchRequest> requests;
};

Workload make_workload(bool smoke) {
  WorkloadConfig config;
  config.seed = 2026;
  config.num_locations = 8;
  config.mean_interarrival = 0.15;
  config.laxity = 1.03;
  config.cpu_rate = 2;
  config.network_rate = 2;
  CostModel phi;
  WorkloadGenerator gen(config, phi);

  // Smoke mode (CI): same workload shape at a fraction of the horizon — the
  // parity machinery is fully exercised, the wall clock stays in seconds.
  const Tick horizon = smoke ? 1200 : 6000;
  Workload w;
  w.supply = gen.base_supply(TimeInterval(0, horizon));
  // Fragment the availability profiles the way a churny open system does:
  // every peer term has its own lifetime, so the residual the controllers
  // plan against carries hundreds of segments per located type.
  const ChurnTrace churn = gen.make_churn(horizon, 8.0, 8.0, 1);
  for (const auto& e : churn.events()) {
    w.supply.add(e.term);
  }
  for (const Arrival& a : gen.make_arrivals(horizon)) {
    w.requests.push_back(
        BatchRequest{make_concurrent_requirement(phi, a.computation), a.at});
  }
  return w;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::size_t accept_count(const std::vector<AdmissionDecision>& decisions) {
  std::size_t n = 0;
  for (const auto& d : decisions) n += d.accepted ? 1 : 0;
  return n;
}

/// FNV-1a 64 over the decision log, one line per decision: index, A/R, then
/// the plan's computation@finish and per actor |actor:start-finish,cuts;usage.
std::string decision_digest(const std::vector<AdmissionDecision>& decisions) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    const AdmissionDecision& d = decisions[i];
    std::ostringstream s;
    s << i << (d.accepted ? 'A' : 'R');
    if (d.plan) {
      s << d.plan->computation << '@' << d.plan->finish;
      for (const ActorPlan& a : d.plan->actors) {
        s << '|' << a.actor << ':' << a.start << '-' << a.finish;
        for (Tick c : a.cut_points) s << ',' << c;
        for (const auto& [type, fn] : a.usage) {
          s << ';' << type.to_string() << '=' << fn.to_string();
        }
      }
    }
    s << '\n';
    for (unsigned char c : s.str()) {
      h ^= c;
      h *= 1099511628211ULL;
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

void check_parity(const std::vector<AdmissionDecision>& expected,
                  const std::vector<AdmissionDecision>& actual,
                  std::size_t threads) {
  if (expected.size() != actual.size()) {
    std::cerr << "FATAL: decision count mismatch at " << threads << " threads\n";
    std::exit(1);
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (expected[i].accepted != actual[i].accepted ||
        expected[i].plan != actual[i].plan) {
      std::cerr << "FATAL: decision divergence at request " << i << " with "
                << threads << " threads\n";
      std::exit(1);
    }
  }
}

constexpr int kTrials = 3;

Measurement bench_sequential(const Workload& w,
                             std::vector<AdmissionDecision>& decisions_out) {
  Measurement m;
  m.controller = "sequential";
  m.threads = 1;
  m.requests = w.requests.size();
  double best = 1e100;
  for (int trial = 0; trial < kTrials; ++trial) {
    CostModel phi;
    RotaAdmissionController ctl(phi, w.supply);
    std::vector<AdmissionDecision> decisions;
    decisions.reserve(w.requests.size());
    const double t0 = now_seconds();
    for (const auto& r : w.requests) decisions.push_back(ctl.request(r.rho, r.at));
    best = std::min(best, now_seconds() - t0);
    decisions_out = std::move(decisions);
  }
  m.seconds = best;
  m.accepted = accept_count(decisions_out);
  m.requests_per_sec = static_cast<double>(m.requests) / best;
  return m;
}

Measurement bench_batch(const Workload& w, std::size_t threads,
                        const std::vector<AdmissionDecision>& expected) {
  Measurement m;
  m.controller = "batch";
  m.threads = threads;
  m.requests = w.requests.size();
  double best = 1e100;
  for (int trial = 0; trial < kTrials; ++trial) {
    CostModel phi;
    BatchAdmissionController ctl(phi, w.supply, PlanningPolicy::kAsap, threads);
    const double t0 = now_seconds();
    const auto decisions = ctl.admit_batch(w.requests);
    best = std::min(best, now_seconds() - t0);
    if (trial == 0) {
      check_parity(expected, decisions, threads);
      m.accepted = accept_count(decisions);
    }
  }
  m.seconds = best;
  m.requests_per_sec = static_cast<double>(m.requests) / best;
  return m;
}

bool write_json(const std::string& path, const Workload& w, Tick horizon,
                const std::vector<Measurement>& results, const std::string& digest,
                const std::string& note) {
  double sequential_rps = 0.0;
  double batch_max_rps = 0.0;
  std::size_t max_threads = 0;
  for (const auto& m : results) {
    if (m.controller == "sequential") sequential_rps = m.requests_per_sec;
    if (m.controller == "batch" && m.threads >= max_threads) {
      max_threads = m.threads;
      batch_max_rps = m.requests_per_sec;
    }
  }
  std::ofstream out(path);
  out << "{\n"
      << "  \"bench\": \"e15_throughput\",\n"
      << "  \"host_cpus\": " << host_cpus() << ",\n"
      << "  \"host_cpus_online\": " << host_cpus_online() << ",\n";
  if (!note.empty()) out << "  \"note\": \"" << note << "\",\n";
  out << "  \"workload\": {\n"
      << "    \"seed\": 2026,\n"
      << "    \"locations\": 8,\n"
      << "    \"horizon_ticks\": " << horizon << ",\n"
      << "    \"requests\": " << w.requests.size() << ",\n"
      << "    \"supply_terms\": " << w.supply.term_count() << "\n"
      << "  },\n"
      << "  \"parity\": \"batch decisions verified identical to sequential FCFS\",\n"
      << "  \"decision_digest\": \"" << digest << "\",\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& m = results[i];
    out << "    {\"controller\": \"" << m.controller << "\", \"threads\": " << m.threads
        << ", \"requests\": " << m.requests << ", \"accepted\": " << m.accepted
        << ", \"seconds\": " << m.seconds
        << ", \"requests_per_sec\": " << static_cast<long long>(m.requests_per_sec)
        << ", \"speedup\": " << m.speedup
        << ", \"scaling_efficiency\": " << m.scaling_efficiency
        << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"speedup_batch8_vs_sequential\": "
      << (sequential_rps > 0 ? batch_max_rps / sequential_rps : 0.0) << "\n"
      << "}\n";
  return out.good();
}

/// One instrumented batch(8) pass with metrics + tracing on, written as a
/// Chrome-trace JSON artifact. Runs after (and apart from) the timed trials.
bool write_trace_artifact(const Workload& w, const std::string& path) {
  obs::MetricsRegistry::global().reset();
  obs::enable_metrics(true);
  obs::TraceRecorder recorder;
  recorder.install();
  {
    CostModel phi;
    BatchAdmissionController ctl(phi, w.supply, PlanningPolicy::kAsap, 8);
    (void)ctl.admit_batch(w.requests);
  }
  recorder.uninstall();
  obs::enable_metrics(false);
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  std::cout << "\ntraced batch(8) pass: " << recorder.event_count()
            << " trace events\n"
            << "  accepted=" << snap.counter("plan.commit.accepted")
            << " rejected.deadline=" << snap.counter("plan.commit.rejected.deadline_passed")
            << " rejected.no_plan=" << snap.counter("plan.commit.rejected.no_plan")
            << " rejected.conflict=" << snap.counter("plan.commit.rejected.conflict")
            << " stale=" << snap.counter("plan.commit.stale")
            << "\n  rounds=" << snap.counter("batch.rounds")
            << " speculations=" << snap.counter("plan.speculate.count")
            << " wasted=" << snap.counter("batch.speculations_wasted") << "\n";
  return recorder.write_chrome_json(path, &snap);
}

/// Reads "speedup_batch8_vs_sequential" out of a stored bench JSON; nullopt
/// when the file or the key is missing.
std::optional<double> read_baseline_speedup(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  const std::string key = "\"speedup_batch8_vs_sequential\": ";
  std::string line;
  while (std::getline(in, line)) {
    const auto pos = line.find(key);
    if (pos == std::string::npos) continue;
    try {
      return std::stod(line.substr(pos + key.size()));
    } catch (...) {
      return std::nullopt;
    }
  }
  return std::nullopt;
}

/// The regression gate behind --check-baseline. On a host wide enough to run
/// all `max_lanes` in parallel, max-lane admission must clear the kMinSpeedup
/// floor — unconditionally, whatever the stored artifact says (an artifact
/// regenerated on a narrow host must not be able to neuter the gate). The
/// stored speedup is reported for context only. Hosts with fewer cores than
/// lanes cannot reproduce the parallelism and are skipped (the parity checks
/// above still ran — a decision divergence dies long before this gate).
int check_baseline(const std::string& baseline_path, double measured_speedup,
                   std::size_t max_lanes) {
  // Full runs gate 8 lanes at 2.5x; smoke runs gate 4 lanes at a laxer 1.5x
  // (small workloads amortize the round machinery less).
  const double kMinSpeedup = max_lanes >= 8 ? 2.5 : 1.5;
  const std::optional<double> baseline = read_baseline_speedup(baseline_path);
  if (baseline) {
    std::cout << "baseline gate: stored speedup " << *baseline << ", measured "
              << measured_speedup << ", floor " << kMinSpeedup << "\n";
  } else {
    std::cout << "baseline gate: no stored speedup in " << baseline_path
              << "; measured " << measured_speedup << ", floor " << kMinSpeedup
              << "\n";
  }
  if (host_cpus() < max_lanes) {
    std::cout << "baseline gate: host has " << host_cpus() << " usable cpus (< "
              << max_lanes << " lanes) — gate skipped\n";
    return 0;
  }
  if (measured_speedup < kMinSpeedup) {
    std::cerr << "FATAL: " << max_lanes << "-lane speedup " << measured_speedup
              << " fell below the " << kMinSpeedup << "x floor\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << "== E15: batched admission throughput ==\n\n";
  std::string json_path = "BENCH_admission_throughput.json";
  std::optional<std::string> baseline_path;
  std::optional<std::string> trace_path = obs::trace_path_from_env();
  bool smoke = false;
  bool force = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--trace-out=", 0) == 0) {
      trace_path = arg.substr(std::string("--trace-out=").size());
    } else if (arg.rfind("--check-baseline=", 0) == 0) {
      baseline_path = arg.substr(std::string("--check-baseline=").size());
    } else if (arg == "--check-baseline") {
      baseline_path = json_path;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--force") {
      force = true;
    } else {
      json_path = arg;
    }
  }

  const std::vector<std::size_t> lane_counts =
      smoke ? std::vector<std::size_t>{1, 2, 4}
            : std::vector<std::size_t>{1, 2, 4, 8};
  const Tick horizon = smoke ? 1200 : 6000;
  const Workload w = make_workload(smoke);
  std::cout << "workload: " << w.requests.size() << " requests, "
            << w.supply.term_count() << " supply terms"
            << (smoke ? " (smoke mode)" : "") << "\n"
            << "host: " << host_cpus() << " usable cpus ("
            << host_cpus_online() << " online)\n\n";

  std::vector<Measurement> results;
  std::vector<AdmissionDecision> expected;
  results.push_back(bench_sequential(w, expected));
  for (std::size_t threads : lane_counts) {
    results.push_back(bench_batch(w, threads, expected));
  }

  const double base = results.front().requests_per_sec;
  for (auto& m : results) {
    m.speedup = base > 0 ? m.requests_per_sec / base : 0.0;
    m.scaling_efficiency = m.threads > 0
                               ? m.speedup / static_cast<double>(m.threads)
                               : 0.0;
  }
  std::cout << "controller   threads   accepted   seconds   req/sec   speedup"
               "   efficiency\n";
  for (const auto& m : results) {
    std::printf("%-12s %7zu %10zu %9.3f %9.0f %8.2fx %10.2f\n",
                m.controller.c_str(), m.threads, m.accepted, m.seconds,
                m.requests_per_sec, m.speedup, m.scaling_efficiency);
  }

  const std::string digest = decision_digest(expected);
  std::cout << "\ndecision digest: " << digest << "\n";

  // The gate reads the *stored* baseline before write_json refreshes it.
  int gate_status = 0;
  if (baseline_path) {
    gate_status =
        check_baseline(*baseline_path, results.back().speedup, lane_counts.back());
  }

  // An artifact measured with more lanes than the host can actually run in
  // parallel records an oversubscription plateau, not a scaling curve —
  // refuse to emit it unless the caller insists (--force stamps the artifact
  // with a note so a reader is never misled).
  const std::size_t max_lanes = lane_counts.back();
  if (max_lanes > host_cpus() && !force) {
    std::cout << "\nNOT writing " << json_path << ": benched " << max_lanes
              << " lanes on " << host_cpus()
              << " usable cpus — scaling numbers would be meaningless."
              << " Pass --force to write anyway.\n";
    return gate_status;
  }
  std::string note;
  if (max_lanes > host_cpus()) {
    note = "forced: benched " + std::to_string(max_lanes) + " lanes on " +
           std::to_string(host_cpus()) +
           " usable cpus; scaling numbers reflect oversubscription";
  }

  if (!write_json(json_path, w, horizon, results, digest, note)) {
    std::cerr << "\nERROR: could not write " << json_path << "\n";
    return 1;
  }
  std::cout << "\nwrote " << json_path << "\n";

  if (trace_path) {
    if (!write_trace_artifact(w, *trace_path)) {
      std::cerr << "ERROR: could not write trace " << *trace_path << "\n";
      return 1;
    }
    std::cout << "wrote " << *trace_path << "\n";
  }
  return gate_status;
}
