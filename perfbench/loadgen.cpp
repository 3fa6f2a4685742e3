// perfbench_loadgen: one benchmark run of one workload, written as JSON for
// perfbench/run.py (which builds this binary, reads the traces a traced run
// leaves behind, and prints the final metrics line).
//
//   perfbench_loadgen --workload served_wire --seed 7 --seconds 20 --trace 0 \
//       --served .bench_build/rota_served --workdir .bench_run \
//       --out .bench_run/result.json
//
// Workloads (shapes and reasons live in perfbench/SPEC.json):
//   served_wire   — open loop at a fixed rate against a real rota_served over
//                   a unix socket; one connection, a sender and a receiver.
//   served_ledger — closed loop on two connections; multi-actor, write-heavy.
//   batch_replay  — the e15 input through BatchAdmissionController in process.
//
// A pass is a fixed request count (never wall time, so a faster build does
// not pay for a deeper ledger); a run repeats passes until --seconds is
// spent, starting a fresh daemon (or controller) each pass.
//
// --trace 1 runs one untraced and one traced pass and reports per-layer
// numbers instead: the daemon gets ROTA_TRACE, the load process records its
// own client.send / client.receive spans, and the served request stream is
// replayed in process through each layer's public entry points.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "rota/obs/obs.hpp"
#include "rota/plan/kernel.hpp"
#include "rota/runtime/batch_controller.hpp"
#include "rota/service/client.hpp"
#include "rota/workload/generator.hpp"

extern char** environ;

namespace {

using namespace rota;
using namespace rota::service;
using Clock = std::chrono::steady_clock;

// ---- workload constants (mirrored in perfbench/SPEC.json) -----------------

constexpr std::size_t kLocations = 4;
constexpr std::size_t kDaemonLanes = 2;
// Longer than a whole run, so no request is ever shed for its budget: a rare
// slow plan or a host stall of a few hundred ms must not turn into a failure.
constexpr std::uint64_t kBudgetUs = 60'000'000;
constexpr std::size_t kWireRequests = 4000;
constexpr double kWireRate = 1000.0;           // requests per second
constexpr double kStallMs = 1.0;               // a send later than this stalled
constexpr std::size_t kRttWindow = 1000;       // requests per latency window
constexpr std::size_t kLedgerRequests = 40000;
constexpr std::size_t kLedgerConnections = 2;
constexpr std::size_t kBatchLanes = 4;
constexpr std::size_t kBatchChunk = 256;
constexpr std::size_t kMinSetups = 21;  // spawn-to-connect samples per run
constexpr int kReadTimeoutMs = 15'000;
constexpr int kReadyTimeoutMs = 20'000;
constexpr int kDrainTimeoutMs = 30'000;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolated quantile of an unsorted sample (copied).
double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Space-separated values, for the per-pass record in the result file.
std::string join(const std::vector<double>& v) {
  std::ostringstream out;
  for (std::size_t i = 0; i < v.size(); ++i) out << (i ? " " : "") << v[i];
  return out.str();
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

/// VmHWM of `pid` ("self" when 0) in MiB; 0 when unreadable.
double peak_rss_mb(pid_t pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // value is in kB
    }
  }
  return 0.0;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string served;
  std::string workdir = ".bench_run";
  std::string out;
};

// ---- result sink ----------------------------------------------------------

struct Result {
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> strings;  // digests, trace paths

  void error(const std::string& e) { errors.push_back(e); }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    out.precision(17);
    out << "{\"correct\": " << (errors.empty() ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"errors\": [";
    for (std::size_t i = 0; i < errors.size(); ++i) {
      out << (i ? ", " : "") << '"' << escape(errors[i]) << '"';
    }
    out << "], \"metrics\": {";
    bool first = true;
    for (const auto& [k, v] : metrics) {
      out << (first ? "" : ", ") << '"' << k << "\": ";
      if (std::isfinite(v)) out << v;
      else out << "null";  // run.py reports it as not measured
      first = false;
    }
    out << "}, \"strings\": {";
    first = true;
    for (const auto& [k, v] : strings) {
      out << (first ? "" : ", ") << '"' << k << "\": \"" << escape(v) << '"';
      first = false;
    }
    out << "}}\n";
    return out.good();
  }

  static std::string escape(const std::string& s) {
    std::string o;
    for (char c : s) {
      if (c == '"' || c == '\\') o += '\\';
      o += (c == '\n' || c == '\t') ? ' ' : c;
    }
    return o;
  }
};

// ---- daemon process -------------------------------------------------------

struct Daemon {
  pid_t pid = -1;
  std::string log_path;
};

/// fork+exec rota_served with stdout/stderr to `log_path`. The child dies
/// with this process (PDEATHSIG), so a killed run leaves no daemon behind.
Daemon spawn_daemon(const Options& o, const std::string& socket, Tick horizon,
                    const std::string& log_path,
                    const std::optional<std::string>& trace_path) {
  std::vector<std::string> args = {o.served,      "--socket",  socket,
                                   "--lanes",     std::to_string(kDaemonLanes),
                                   "--locations", std::to_string(kLocations),
                                   "--horizon",   std::to_string(horizon),
                                   "--seed",      std::to_string(o.seed)};
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("ROTA_TRACE=", 0) == 0 || kv.rfind("ROTA_SERVICE_SECRET=", 0) == 0) continue;
    env.push_back(kv);
  }
  if (trace_path) env.push_back("ROTA_TRACE=" + *trace_path);
  std::vector<char*> argv, envp;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  for (auto& e : env) envp.push_back(e.data());
  envp.push_back(nullptr);

  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::system_error(errno, std::generic_category(), "fork");
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      ::close(fd);
    }
    ::execve(argv[0], argv.data(), envp.data());
    ::_exit(127);
  }
  return Daemon{pid, log_path};
}

/// Polls until the daemon accepts a connection; the returned client is the
/// run's first connection.
ServiceClient connect_when_ready(const Daemon& d, const std::string& socket) {
  ClientOptions options;
  options.read_timeout_ms = kReadTimeoutMs;
  options.reconnect = false;
  const auto give_up = Clock::now() + std::chrono::milliseconds(kReadyTimeoutMs);
  for (;;) {
    try {
      return ServiceClient::connect_unix(socket, options);
    } catch (const std::system_error&) {
      int status = 0;
      if (::waitpid(d.pid, &status, WNOHANG) == d.pid) {
        throw std::runtime_error("rota_served exited before accepting connections");
      }
      if (Clock::now() > give_up) {
        throw std::runtime_error("rota_served did not accept connections in time");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
}

/// SIGTERM, bounded wait, then the clean-drain checks. Appends failures to
/// `errors`; never leaves the process running.
void stop_daemon(Daemon& d, std::vector<std::string>& errors) {
  if (d.pid <= 0) return;
  const auto read_log = [&] {
    std::ifstream in(d.log_path);
    return std::string((std::istreambuf_iterator<char>(in)), {});
  };
  const auto give_up = Clock::now() + std::chrono::milliseconds(kDrainTimeoutMs);
  // rota_served accepts connections before it installs its SIGTERM handler
  // and prints "listening" only after; a signal in between kills it undrained.
  while (read_log().find("listening") == std::string::npos && Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ::kill(d.pid, SIGTERM);
  int status = 0;
  pid_t r = 0;
  while ((r = ::waitpid(d.pid, &status, WNOHANG)) == 0 && Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (r == 0) {
    ::kill(d.pid, SIGKILL);
    ::waitpid(d.pid, &status, 0);
    errors.push_back("rota_served did not drain within the timeout");
  } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    errors.push_back("rota_served exited with status " + std::to_string(status));
  }
  d.pid = -1;
  if (read_log().find("clean drain complete") == std::string::npos) {
    errors.push_back("rota_served did not report a clean drain");
  }
}

/// Kills the daemon on every exit path of a pass (normal stops disarm it).
struct DaemonGuard {
  Daemon& d;
  ~DaemonGuard() {
    if (d.pid > 0) {
      ::kill(d.pid, SIGKILL);
      ::waitpid(d.pid, nullptr, 0);
    }
  }
};

// ---- served workloads -----------------------------------------------------

struct ServedInput {
  std::vector<AdmitRequest> requests;
  Tick horizon = 0;
};

/// The request stream: tick = request index (monotone, never wrapping), the
/// daemon's supply horizon past the last window.
ServedInput served_input(std::uint64_t seed, std::size_t n, std::size_t actors_max) {
  WorkloadConfig config;
  config.seed = seed;
  config.num_locations = kLocations;
  config.actors_min = 1;
  config.actors_max = actors_max;
  config.laxity = 2.0;
  WorkloadGenerator gen(config, CostModel{});
  ServedInput in;
  in.requests.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    AdmitRequest r;
    r.id = i + 1;
    r.at = static_cast<Tick>(i);
    r.budget_us = kBudgetUs;
    r.computation = gen.make_computation(r.at);
    in.horizon = std::max(in.horizon, r.computation.deadline());
    in.requests.push_back(std::move(r));
  }
  in.horizon += 64;
  return in;
}

/// One pass against one fresh daemon.
struct ServedPass {
  double setup_s = 0.0;
  double measured_s = 0.0;
  double peak_rss_mb = 0.0;
  std::vector<double> rtt_ms;       // per answered request
  std::vector<double> late_ms;      // open loop: send time minus due time
  std::vector<std::optional<AdmitResponse>> responses;  // by request index
  std::vector<double> rtt_by_index;  // NaN when unanswered
  std::vector<std::string> errors;
};

struct Tally {
  std::uint64_t accepted = 0, rejected = 0, shed_queue = 0, shed_budget = 0;
  std::uint64_t protocol = 0, unanswered = 0, deadline_passed = 0, exact = 0;
  std::uint64_t decided() const { return accepted + rejected; }
  std::uint64_t failed() const { return shed_queue + shed_budget + protocol + unanswered; }
};

Tally tally(const ServedPass& p) {
  Tally t;
  for (const auto& r : p.responses) {
    if (!r) {
      ++t.unanswered;
      continue;
    }
    switch (r->verdict) {
      case Verdict::kAccepted:
        ++t.accepted;
        break;
      case Verdict::kRejected:
        if (r->reason.rfind("invalid request", 0) == 0) {
          ++t.protocol;
          continue;
        }
        ++t.rejected;
        if (r->reason.find("deadline has already passed") != std::string::npos) {
          ++t.deadline_passed;
        }
        break;
      case Verdict::kOverloaded:
        if (r->reason.find("budget") != std::string::npos) ++t.shed_budget;
        else ++t.shed_queue;
        continue;
    }
    if (r->strategy == "exact") ++t.exact;
  }
  return t;
}

/// Records a response against the request it answers; flags unknown and
/// duplicate ids. Returns false for a protocol-error frame (id 0).
bool record_response(ServedPass& p, const AdmitResponse& r, Clock::time_point at,
                     Clock::time_point since, std::vector<std::string>& errors) {
  if (r.id == 0) {
    errors.push_back("protocol error: " + r.reason);
    return false;
  }
  const std::size_t i = static_cast<std::size_t>(r.id - 1);
  if (i >= p.responses.size()) {
    errors.push_back("response for unknown id " + std::to_string(r.id));
    return true;
  }
  if (p.responses[i]) {
    errors.push_back("id " + std::to_string(r.id) + " answered twice");
    return true;
  }
  p.responses[i] = r;
  p.rtt_by_index[i] = ms_between(since, at);
  p.rtt_ms.push_back(p.rtt_by_index[i]);
  return true;
}

ServedPass run_served_pass(const Options& o, const ServedInput& in, bool open_loop,
                           const std::optional<std::string>& daemon_trace,
                           int pass_no) {
  const std::string socket = o.workdir + "/served.sock";
  const std::string log = o.workdir + "/served." + std::to_string(pass_no) + ".log";
  const std::size_t n = in.requests.size();
  ServedPass p;
  p.responses.resize(n);
  p.rtt_by_index.assign(n, std::nan(""));

  const auto t_spawn = Clock::now();
  Daemon d = spawn_daemon(o, socket, in.horizon, log, daemon_trace);
  DaemonGuard guard{d};
  std::vector<ServiceClient> clients;
  clients.push_back(connect_when_ready(d, socket));
  p.setup_s = seconds_since(t_spawn);

  std::vector<std::string> sender_errors, receiver_errors;
  Clock::time_point start, last;
  if (open_loop) {
    ServiceClient& client = clients.front();
    const auto period = std::chrono::nanoseconds(
        static_cast<std::int64_t>(1e9 / kWireRate));
    start = Clock::now() + std::chrono::milliseconds(5);
    std::vector<Clock::time_point> due(n);
    for (std::size_t i = 0; i < n; ++i) due[i] = start + period * static_cast<std::int64_t>(i);
    p.late_ms.resize(n);
    std::thread sender([&] {
      ::prctl(PR_SET_TIMERSLACK, 1UL);  // wake on time, not up to 50 µs late
      try {
        for (std::size_t i = 0; i < n; ++i) {
          std::this_thread::sleep_until(due[i]);
          p.late_ms[i] = ms_between(due[i], Clock::now());
          ROTA_OBS_SPAN("client.send");
          client.send(in.requests[i]);
        }
      } catch (const std::exception& e) {
        sender_errors.push_back(std::string("send: ") + e.what());
      }
    });
    std::thread receiver([&] {
      try {
        for (std::size_t got = 0; got < n; ++got) {
          std::optional<AdmitResponse> r;
          {
            ROTA_OBS_SPAN("client.receive");
            r = client.receive();
          }
          const auto now = Clock::now();
          if (!r) {
            receiver_errors.push_back("connection closed before every answer");
            break;
          }
          // Due time, not send time: a sender stall counts against latency.
          const std::size_t i = r->id - 1;
          if (!record_response(p, *r, now, i < n ? due[i] : now, receiver_errors)) break;
          last = now;
        }
      } catch (const std::exception& e) {
        receiver_errors.push_back(std::string("receive: ") + e.what());
      }
    });
    sender.join();
    receiver.join();
  } else {
    for (std::size_t c = 1; c < kLedgerConnections; ++c) {
      ClientOptions options;
      options.read_timeout_ms = kReadTimeoutMs;
      options.reconnect = false;
      clients.push_back(ServiceClient::connect_unix(socket, options));
    }
    std::atomic<std::size_t> next{0};
    std::vector<Clock::time_point> lasts(clients.size());
    std::vector<std::vector<std::string>> errs(clients.size());
    start = Clock::now();
    std::vector<std::thread> loops;
    for (std::size_t c = 0; c < clients.size(); ++c) {
      loops.emplace_back([&, c] {
        ServiceClient& client = clients[c];
        try {
          for (;;) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n) break;
            const auto t0 = Clock::now();
            {
              ROTA_OBS_SPAN("client.send");
              client.send(in.requests[i]);
            }
            std::optional<AdmitResponse> r;
            {
              ROTA_OBS_SPAN("client.receive");
              r = client.receive();
            }
            const auto t1 = Clock::now();
            if (!r) {
              errs[c].push_back("connection closed before every answer");
              break;
            }
            if (r->id != in.requests[i].id) {
              errs[c].push_back("closed loop got id " + std::to_string(r->id) +
                                " for request " + std::to_string(in.requests[i].id));
              break;
            }
            // Each index is claimed by one loop, so slots never race.
            p.responses[i] = *r;
            p.rtt_by_index[i] = ms_between(t0, t1);
            lasts[c] = t1;
          }
        } catch (const std::exception& e) {
          errs[c].push_back(std::string("closed loop: ") + e.what());
        }
      });
    }
    for (auto& t : loops) t.join();
    last = *std::max_element(lasts.begin(), lasts.end());
    for (std::size_t i = 0; i < n; ++i) {
      if (p.responses[i]) p.rtt_ms.push_back(p.rtt_by_index[i]);
    }
    for (auto& e : errs) receiver_errors.insert(receiver_errors.end(), e.begin(), e.end());
  }
  p.measured_s = std::chrono::duration<double>(last - start).count();
  p.peak_rss_mb = peak_rss_mb(d.pid);
  for (auto& c : clients) c.close();
  p.errors.insert(p.errors.end(), sender_errors.begin(), sender_errors.end());
  p.errors.insert(p.errors.end(), receiver_errors.begin(), receiver_errors.end());
  stop_daemon(d, p.errors);
  return p;
}

/// Spawn-to-first-connect only: extra set-up samples when a run's passes are
/// too few for a steady median.
double probe_setup(const Options& o, Tick horizon, int pass_no,
                   std::vector<std::string>& errors) {
  const std::string socket = o.workdir + "/served.sock";
  const auto t_spawn = Clock::now();
  Daemon d = spawn_daemon(o, socket, horizon,
                          o.workdir + "/probe." + std::to_string(pass_no) + ".log",
                          std::nullopt);
  DaemonGuard guard{d};
  ServiceClient client = connect_when_ready(d, socket);
  const double s = seconds_since(t_spawn);
  client.close();
  stop_daemon(d, errors);
  return s;
}

/// The served request stream replayed in process through each layer's public
/// entry point: codec and Φ are timed per call (the daemon has no spans
/// there); capture, speculate and commit keep a sequential ledger whose
/// residual size is the one the daemon's stream leaves behind.
struct Replay {
  double encode_us = 0, parse_us = 0, phi_us = 0, response_us = 0, request_bytes = 0;
  std::size_t residual_terms = 0;
};

Replay replay_served(const Options& o, const ServedInput& in, std::vector<std::string>& errors) {
  WorkloadConfig config;
  config.seed = o.seed;
  config.num_locations = kLocations;
  WorkloadGenerator gen(config, CostModel{});  // the daemon's supply and Φ
  CommitmentLedger ledger(gen.base_supply(TimeInterval(0, in.horizon)));
  PlanningKernel kernel;
  const CostModel& phi = gen.phi();
  double t_encode = 0, t_parse = 0, t_phi = 0, t_response = 0, bytes = 0;
  const auto us = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
  };
  for (const AdmitRequest& request : in.requests) {
    const auto t0 = Clock::now();
    const std::string payload = request_payload(request);
    const std::string wire = frame(payload);
    const auto t1 = Clock::now();
    const AdmitRequest parsed = parse_request(payload);
    const auto t2 = Clock::now();
    const ConcurrentRequirement rho = make_concurrent_requirement(phi, parsed.computation);
    const auto t3 = Clock::now();
    const FeasibilitySnapshot snapshot = FeasibilitySnapshot::capture(
        ledger, effective_window(rho, parsed.at), touched_shard_mask(rho));
    const PlanResult result = kernel.speculate(rho, parsed.at, snapshot);
    AdmissionDecision decision;
    const CommitStatus status = kernel.commit(result, ledger, decision);
    const auto t4 = Clock::now();
    AdmitResponse response;
    response.id = parsed.id;
    response.verdict = decision.accepted ? Verdict::kAccepted : Verdict::kRejected;
    response.strategy = "exact";
    response.reason = decision.reason;
    response.planning_ns = static_cast<std::uint64_t>(us(t3, t4) * 1000.0);
    const AdmitResponse echoed = parse_response(response_payload(response));
    const auto t5 = Clock::now();
    if (!(parsed == request)) errors.push_back("request codec round trip changed a request");
    if (!(echoed == response)) errors.push_back("response codec round trip changed a response");
    if (status != CommitStatus::kCommitted) errors.push_back("sequential replay went stale");
    t_encode += us(t0, t1);
    t_parse += us(t1, t2);
    t_phi += us(t2, t3);
    t_response += us(t4, t5);
    bytes += static_cast<double>(wire.size());
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, in.requests.size()));
  Replay r;
  r.encode_us = t_encode / n;
  r.parse_us = t_parse / n;
  r.phi_us = t_phi / n;
  r.response_us = t_response / n;
  r.request_bytes = bytes / n;
  r.residual_terms = ledger.residual().term_count();
  return r;
}

/// Open-loop generator lateness (send time minus due time); all 0 for the
/// closed loop, which has no schedule to fall behind.
void loadgen_lateness(const std::vector<double>& late_ms, Result& out) {
  std::size_t stalled = 0;
  for (double l : late_ms) stalled += l > kStallMs ? 1 : 0;
  out.metrics["loadgen.late_ms_max"] =
      late_ms.empty() ? 0.0 : *std::max_element(late_ms.begin(), late_ms.end());
  out.metrics["loadgen.late_ms_p99"] = quantile(late_ms, 0.99);
  out.metrics["loadgen.stalled_sends"] = static_cast<double>(stalled);
}

/// Appends the p-quantile of each window of kRttWindow consecutive requests
/// of `pass` (in request order, unanswered ones skipped). The run reports the
/// median over windows, so a host stall of a few hundred ms inflates the
/// windows it falls in, not the run's figure, the way it would a quantile
/// pooled over the run.
void window_quantiles(const ServedPass& pass, double p, std::vector<double>& per_window) {
  const std::vector<double>& rtt = pass.rtt_by_index;
  for (std::size_t lo = 0; lo < rtt.size(); lo += kRttWindow) {
    std::vector<double> window;
    for (std::size_t i = lo; i < std::min(lo + kRttWindow, rtt.size()); ++i) {
      if (!std::isnan(rtt[i])) window.push_back(rtt[i]);
    }
    if (!window.empty()) per_window.push_back(quantile(std::move(window), p));
  }
}

/// End-to-end metrics of the passes of one untraced run.
void served_end_to_end(const std::vector<ServedPass>& passes,
                       const std::vector<double>& extra_setups, Result& out) {
  std::vector<double> setups = extra_setups, dps, rss, rtt, late;
  std::uint64_t decided = 0, accepted = 0;
  for (const ServedPass& p : passes) {
    const Tally t = tally(p);
    setups.push_back(p.setup_s);
    dps.push_back(static_cast<double>(t.decided()) / p.measured_s);
    rss.push_back(p.peak_rss_mb);
    rtt.insert(rtt.end(), p.rtt_ms.begin(), p.rtt_ms.end());
    late.insert(late.end(), p.late_ms.begin(), p.late_ms.end());
    decided += t.decided();
    accepted += t.accepted;
    out.attempted += p.responses.size();
    out.failed += t.failed();
  }
  out.metrics["setup_s"] = median(setups);
  out.metrics["decisions_per_s"] = median(dps);
  out.strings["passes.setup_s"] = join(setups);
  out.strings["passes.decisions_per_s"] = join(dps);
  std::vector<double> p50s, p95s;
  for (const ServedPass& p : passes) {
    window_quantiles(p, 0.50, p50s);
    window_quantiles(p, 0.95, p95s);
  }
  out.metrics["rtt_p50_ms"] = median(p50s);
  out.metrics["rtt_p95_ms"] = median(p95s);
  out.metrics["rtt_p99_ms"] = quantile(rtt, 0.99);
  out.metrics["accept_ratio"] =
      decided ? static_cast<double>(accepted) / static_cast<double>(decided) : 0.0;
  out.metrics["peak_rss_mb"] = median(rss);
  out.metrics["samples.rtt"] = static_cast<double>(rtt.size());
  loadgen_lateness(late, out);
}

/// Per-layer numbers read off one untraced pass's responses.
void served_layers(const ServedPass& p, Result& out) {
  const Tally t = tally(p);
  std::vector<double> overhead, queue, planning;  // in request order
  for (std::size_t i = 0; i < p.responses.size(); ++i) {
    const auto& r = p.responses[i];
    if (!r) continue;
    const double q = static_cast<double>(r->queue_ns) / 1e6;
    const double pl = static_cast<double>(r->planning_ns) / 1e6;
    overhead.push_back(p.rtt_by_index[i] - q - pl);
    queue.push_back(q);
    planning.push_back(pl);
  }
  const std::size_t decile = std::min(planning.size(), std::max<std::size_t>(1, planning.size() / 10));
  const std::vector<double> first(planning.begin(), planning.begin() + decile);
  const std::vector<double> last(planning.end() - decile, planning.end());
  auto& m = out.metrics;
  m["wire.overhead_ms_p50"] = median(overhead);
  m["service.queue_ms_p50"] = quantile(queue, 0.50);
  m["service.queue_ms_p99"] = quantile(queue, 0.99);
  m["service.planning_ms_p50"] = quantile(planning, 0.50);
  m["service.planning_ms_p99"] = quantile(planning, 0.99);
  m["service.planning_ms.first_decile"] = mean(first);
  m["service.planning_ms.last_decile"] = mean(last);
  m["service.exact_share"] =
      t.decided() ? static_cast<double>(t.exact) / static_cast<double>(t.decided()) : 0.0;
  m["service.shed_queue"] = static_cast<double>(t.shed_queue);
  m["service.shed_budget"] = static_cast<double>(t.shed_budget);
  m["service.reject_deadline_passed"] = static_cast<double>(t.deadline_passed);
  m["failed.protocol_error"] = static_cast<double>(t.protocol);
  m["failed.unanswered"] = static_cast<double>(t.unanswered);
  m["failed_ratio"] = p.responses.empty()
                          ? 0.0
                          : static_cast<double>(t.failed()) /
                                static_cast<double>(p.responses.size());
  loadgen_lateness(p.late_ms, out);
  std::vector<double> p95s;
  window_quantiles(p, 0.95, p95s);
  m["rtt_p95_ms"] = median(p95s);
  m["rtt_p99_ms"] = quantile(p.rtt_ms, 0.99);
  const double rtt_p50 = quantile(p.rtt_ms, 0.50);
  m["trace.unaccounted_ms_p50"] =
      rtt_p50 - (m["wire.overhead_ms_p50"] + m["service.queue_ms_p50"] +
                 m["service.planning_ms_p50"]);
}

void check_pass(const ServedPass& p, int pass_no, Result& out) {
  for (const std::string& e : p.errors) out.error("pass " + std::to_string(pass_no) + ": " + e);
  const Tally t = tally(p);
  if (t.unanswered != 0) {
    out.error("pass " + std::to_string(pass_no) + ": " + std::to_string(t.unanswered) +
              " requests never answered");
  }
  // Failures are counted, not errors; name the first few so a run that has
  // any says why.
  std::string& failures = out.strings["failures"];
  for (const auto& r : p.responses) {
    if (failures.size() > 400) break;
    if (r && (r->verdict == Verdict::kOverloaded ||
              r->reason.rfind("invalid request", 0) == 0)) {
      failures += "pass " + std::to_string(pass_no) + " id " + std::to_string(r->id) +
                  ": " + r->reason + "; ";
    }
  }
}

void run_served(const Options& o, bool open_loop, Result& out) {
  const ServedInput in =
      open_loop ? served_input(o.seed, kWireRequests, 1) : served_input(o.seed, kLedgerRequests, 3);
  int pass_no = 0;
  if (!o.trace) {
    std::vector<ServedPass> passes;
    const auto t0 = Clock::now();
    double longest = 0.0;
    while (passes.empty() || seconds_since(t0) + longest <= o.seconds) {
      const auto tp = Clock::now();
      passes.push_back(run_served_pass(o, in, open_loop, std::nullopt, pass_no));
      check_pass(passes.back(), pass_no++, out);
      longest = std::max(longest, seconds_since(tp));
    }
    std::vector<double> extra;
    for (std::size_t k = passes.size(); k < kMinSetups; ++k) {
      extra.push_back(probe_setup(o, in.horizon, pass_no++, out.errors));
    }
    served_end_to_end(passes, extra, out);
    return;
  }
  const ServedPass plain = run_served_pass(o, in, open_loop, std::nullopt, pass_no);
  check_pass(plain, pass_no++, out);
  const std::string daemon_trace = o.workdir + "/trace_daemon.json";
  const std::string client_trace = o.workdir + "/trace_client.json";
  ServedPass traced;
  {
    obs::TraceRecorder recorder;
    recorder.install();
    traced = run_served_pass(o, in, open_loop, daemon_trace, pass_no);
    recorder.uninstall();
    if (!recorder.write_chrome_json(client_trace)) out.error("could not write " + client_trace);
  }
  check_pass(traced, pass_no++, out);
  out.strings["trace.daemon"] = daemon_trace;
  out.strings["trace.client"] = client_trace;
  out.attempted = plain.responses.size() + traced.responses.size();
  out.failed = tally(plain).failed() + tally(traced).failed();
  served_layers(plain, out);
  const auto dps = [](const ServedPass& p) {
    return static_cast<double>(tally(p).decided()) / p.measured_s;
  };
  out.metrics["trace.overhead_share"] = 1.0 - dps(traced) / dps(plain);
  out.metrics["trace.rtt_overhead_ms"] =
      quantile(traced.rtt_ms, 0.5) - quantile(plain.rtt_ms, 0.5);

  const Replay r = replay_served(o, in, out.errors);
  auto& m = out.metrics;
  m["wire.request_encode_us"] = r.encode_us;
  m["wire.request_parse_us"] = r.parse_us;
  m["wire.response_codec_us"] = r.response_us;
  m["wire.request_bytes"] = r.request_bytes;
  m["phi.derive_us"] = r.phi_us;
  m["ledger.residual_terms"] = static_cast<double>(r.residual_terms);
  // No batch pipeline on the served path.
  for (const char* k : {"batch.rounds_per_request", "batch.speculations_per_request",
                        "batch.wasted_share"}) {
    m[k] = 0.0;
  }
}

// ---- batch workload -------------------------------------------------------

/// The e15 input: seed 2026, 8 locations, constant supply fragmented by
/// churned peer terms, ~40k deadline-constrained arrivals.
WorkloadConfig e15_config() {
  WorkloadConfig config;
  config.seed = 2026;
  config.num_locations = 8;
  config.mean_interarrival = 0.15;
  config.laxity = 1.03;
  config.cpu_rate = 2;
  config.network_rate = 2;
  return config;
}
constexpr Tick kE15Horizon = 6000;

/// Supply assembly, exactly as e15 does it (the generator's rng then sits
/// where e15's does before drawing arrivals).
ResourceSet assemble_supply(WorkloadGenerator& gen) {
  ResourceSet supply = gen.base_supply(TimeInterval(0, kE15Horizon));
  const ChurnTrace churn = gen.make_churn(kE15Horizon, 8.0, 8.0, 1);
  for (const auto& e : churn.events()) supply.add(e.term);
  return supply;
}

struct BatchInput {
  std::vector<std::vector<BatchRequest>> chunks;
  std::size_t requests = 0;
  double phi_us = 0.0;
};

BatchInput batch_input() {
  WorkloadGenerator gen(e15_config(), CostModel{});
  BatchInput in;
  assemble_supply(gen);  // advances the rng to where e15 draws arrivals
  const std::vector<Arrival> arrivals = gen.make_arrivals(kE15Horizon);
  const CostModel& phi = gen.phi();
  double phi_total = 0.0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    if (i % kBatchChunk == 0) in.chunks.emplace_back();
    const auto t0 = Clock::now();
    ConcurrentRequirement rho = make_concurrent_requirement(phi, arrivals[i].computation);
    phi_total += std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    in.chunks.back().push_back(BatchRequest{std::move(rho), arrivals[i].at});
  }
  in.requests = arrivals.size();
  in.phi_us = phi_total / static_cast<double>(std::max<std::size_t>(1, in.requests));
  return in;
}

struct BatchPass {
  double setup_s = 0.0;
  double measured_s = 0.0;
  std::vector<double> rtt_ms;  // one per admit_batch call
  std::size_t accepted = 0, decided = 0, residual_terms = 0;
  std::uint64_t digest = kFnvBasis;
};

/// FNV-1a over the decision log: index, verdict and the full plan.
void digest_decision(std::uint64_t& h, std::size_t index, const AdmissionDecision& d) {
  std::ostringstream s;
  s << index << (d.accepted ? 'A' : 'R');
  if (d.plan) {
    s << d.plan->computation << '@' << d.plan->finish;
    for (const ActorPlan& a : d.plan->actors) {
      s << '|' << a.actor << ':' << a.start << '-' << a.finish;
      for (Tick c : a.cut_points) s << ',' << c;
      for (const auto& [type, fn] : a.usage) s << ';' << type.to_string() << '=' << fn.to_string();
    }
  }
  s << '\n';
  h = fnv1a(h, s.str());
}

BatchPass run_batch_pass(const BatchInput& in) {
  BatchPass p;
  const auto t0 = Clock::now();
  WorkloadGenerator gen(e15_config(), CostModel{});
  BatchAdmissionController ctl(gen.phi(), assemble_supply(gen), PlanningPolicy::kAsap,
                               kBatchLanes);
  p.setup_s = seconds_since(t0);
  std::size_t index = 0;
  const auto start = Clock::now();
  for (const auto& chunk : in.chunks) {
    const auto a = Clock::now();
    const std::vector<AdmissionDecision> decisions = ctl.admit_batch(chunk);
    p.rtt_ms.push_back(ms_between(a, Clock::now()));
    for (const AdmissionDecision& d : decisions) {
      p.accepted += d.accepted ? 1 : 0;
      digest_decision(p.digest, index++, d);
    }
  }
  p.measured_s = seconds_since(start);
  p.decided = index;
  p.residual_terms = ctl.ledger().residual().term_count();
  return p;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void check_batch(const BatchPass& p, const BatchInput& in, Result& out) {
  if (p.decided != in.requests) out.error("batch pass decided fewer requests than it was given");
  const std::string d = hex(p.digest);
  const auto it = out.strings.find("digest");
  if (it == out.strings.end()) {
    out.strings["digest"] = d;
    out.metrics["accepts"] = static_cast<double>(p.accepted);
  } else if (it->second != d) {
    out.error("batch decision digest differs between passes");
  }
  out.attempted += p.decided;
}

void run_batch(const Options& o, Result& out) {
  const BatchInput in = batch_input();
  if (!o.trace) {
    std::vector<BatchPass> passes;
    const auto t0 = Clock::now();
    double longest = 0.0;
    while (passes.size() < 1 || seconds_since(t0) + longest <= o.seconds) {
      const auto tp = Clock::now();
      passes.push_back(run_batch_pass(in));
      check_batch(passes.back(), in, out);
      longest = std::max(longest, seconds_since(tp));
    }
    std::vector<double> setups, dps, rtt;
    for (const BatchPass& p : passes) {
      setups.push_back(p.setup_s);
      dps.push_back(static_cast<double>(p.decided) / p.measured_s);
      rtt.insert(rtt.end(), p.rtt_ms.begin(), p.rtt_ms.end());
    }
    auto& m = out.metrics;
    m["setup_s"] = median(setups);
    m["decisions_per_s"] = median(dps);
    out.strings["passes.setup_s"] = join(setups);
    out.strings["passes.decisions_per_s"] = join(dps);
    m["rtt_p50_ms"] = quantile(rtt, 0.50);
    m["rtt_p95_ms"] = quantile(rtt, 0.95);
    m["rtt_p99_ms"] = quantile(rtt, 0.99);
    m["accept_ratio"] = static_cast<double>(passes.front().accepted) /
                        static_cast<double>(passes.front().decided);
    m["peak_rss_mb"] = peak_rss_mb(0);
    m["samples.rtt"] = static_cast<double>(rtt.size());
    return;
  }
  const BatchPass plain = run_batch_pass(in);
  check_batch(plain, in, out);
  obs::MetricsRegistry::global().reset();
  obs::enable_metrics(true);
  const std::string trace = o.workdir + "/trace_batch.json";
  BatchPass traced;
  {
    obs::TraceRecorder recorder;
    recorder.install();
    traced = run_batch_pass(in);
    recorder.uninstall();
    obs::enable_metrics(false);
    const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
    if (!recorder.write_chrome_json(trace, &snap)) out.error("could not write " + trace);
    const double n = static_cast<double>(in.requests);
    const double specs = static_cast<double>(snap.counter("plan.speculate.count"));
    auto& m = out.metrics;
    m["batch.rounds_per_request"] = static_cast<double>(snap.counter("batch.rounds")) / n;
    m["batch.speculations_per_request"] = specs / n;
    m["batch.wasted_share"] =
        specs > 0 ? static_cast<double>(snap.counter("batch.speculations_wasted")) / specs : 0.0;
  }
  check_batch(traced, in, out);
  out.strings["trace.batch"] = trace;
  auto& m = out.metrics;
  m["trace.overhead_share"] =
      1.0 - (static_cast<double>(traced.decided) / traced.measured_s) /
                (static_cast<double>(plain.decided) / plain.measured_s);
  m["trace.rtt_overhead_ms"] = quantile(traced.rtt_ms, 0.5) - quantile(plain.rtt_ms, 0.5);
  m["phi.derive_us"] = in.phi_us;
  m["ledger.residual_terms"] = static_cast<double>(plain.residual_terms);
  m["rtt_p95_ms"] = quantile(plain.rtt_ms, 0.95);
  m["rtt_p99_ms"] = quantile(plain.rtt_ms, 0.99);
  // No socket, queue, governor or load generator on the in-process path.
  for (const char* k :
       {"wire.request_encode_us", "wire.request_parse_us", "wire.response_codec_us",
        "wire.request_bytes", "wire.overhead_ms_p50", "service.queue_ms_p50",
        "service.queue_ms_p99", "service.planning_ms_p50", "service.planning_ms_p99",
        "service.planning_ms.first_decile", "service.planning_ms.last_decile",
        "service.exact_share", "service.shed_queue", "service.shed_budget",
        "service.reject_deadline_passed", "failed.protocol_error", "failed.unanswered",
        "failed_ratio", "loadgen.late_ms_max", "loadgen.late_ms_p99",
        "loadgen.stalled_sends", "trace.unaccounted_ms_p50"}) {
    m[k] = 0.0;
  }
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload served_wire|served_ledger|batch_replay --seed N"
               " --seconds S --trace 0|1 --served PATH --workdir DIR --out FILE\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string v = argv[++i];
    if (arg == "--workload") o.workload = v;
    else if (arg == "--seed") o.seed = std::stoull(v);
    else if (arg == "--seconds") o.seconds = std::stod(v);
    else if (arg == "--trace") o.trace = v == "1";
    else if (arg == "--served") o.served = v;
    else if (arg == "--workdir") o.workdir = v;
    else if (arg == "--out") o.out = v;
    else return usage(argv[0]);
  }
  if (o.out.empty()) return usage(argv[0]);
  ::signal(SIGPIPE, SIG_IGN);  // a dead daemon must surface as an error, not kill us

  Result result;
  try {
    if (o.workload == "served_wire") run_served(o, true, result);
    else if (o.workload == "served_ledger") run_served(o, false, result);
    else if (o.workload == "batch_replay") run_batch(o, result);
    else return usage(argv[0]);
  } catch (const std::exception& e) {
    result.error(std::string("run aborted: ") + e.what());
  }
  if (!result.write(o.out)) {
    std::cerr << "cannot write " << o.out << "\n";
    return 1;
  }
  return 0;
}
