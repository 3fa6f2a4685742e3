// E21: hostile-conditions fault sweep — accepted-plan deadline-hit rate of
// the cluster layer under seeded crash/restart/partition schedules, with and
// without closed-loop retry clients, at three fault intensities (calm /
// moderate / hostile). Writes BENCH_faults.json (pass a path as argv[1] to
// redirect; --smoke shrinks the workload for CI).
//
// Both retry variants of an intensity run against the byte-identical fault
// schedule and arrival stream, so the retries column is the only thing that
// moves between them: the gap between deadline_hit_rate (per submission,
// retries diluted in) and root_hit_rate (per original job, retries folded
// into their root) is what the storm buys back.
//
// The bench exits non-zero on its own invariants: message accounting must
// balance (sent = delivered + dropped + in-flight), every decision must be
// an original or a minted retry, calm cells must lose nothing, a no-retry
// cell must resubmit nothing, the hostile retry cell must actually storm,
// and an identically-seeded rerun of that flagship cell must reproduce the
// decision log byte for byte. The flagship's decision log is also pinned:
// its FNV-1a 64 digest is written as flagship.decision_digest, and the bench
// exits non-zero when it differs from the value pinned below for the run
// size, so a change to any cluster decision is caught, not just a
// nondeterministic one.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "rota/cluster/cluster.hpp"
#include "rota/faults/schedule.hpp"
#include "rota/util/rng.hpp"
#include "rota/workload/generator.hpp"

namespace {

using namespace rota;
using namespace rota::cluster;

constexpr std::size_t kNodes = 4;
constexpr double kHotFraction = 0.5;
constexpr std::uint64_t kSeed = 2026;
// Flagship decision-log digests for kSeed, per run size.
constexpr const char* kSmokeDigest = "f738f50bdaa00d81";
constexpr const char* kFullDigest = "de6b2fe45c98c2b5";

struct Intensity {
  const char* name;
  bool faulty;  // calm = no schedule at all
  faults::FaultProfile profile;
};

std::vector<Intensity> intensities() {
  Intensity calm{"calm", false, {}};

  Intensity moderate{"moderate", true, {}};
  moderate.profile.crash_rate = 0.5;
  moderate.profile.min_outage = 4;
  moderate.profile.max_outage = 12;
  moderate.profile.partition_rate = 0.4;
  moderate.profile.heal_probability = 0.9;

  Intensity hostile{"hostile", true, {}};
  hostile.profile.crash_rate = 1.0;
  hostile.profile.restart_probability = 0.8;
  hostile.profile.recover_probability = 0.5;
  hostile.profile.min_outage = 0;  // same-tick bounces allowed
  hostile.profile.max_outage = 20;
  hostile.profile.partition_rate = 0.9;
  hostile.profile.min_cut = 0;
  hostile.profile.max_cut = 20;
  hostile.profile.heal_probability = 0.8;

  return {calm, moderate, hostile};
}

struct Cell {
  std::string intensity;
  std::size_t fault_events = 0;
  bool retries = false;

  std::size_t originals = 0;
  std::size_t submitted = 0;  // originals + minted retries
  std::uint64_t resubmissions = 0;
  std::size_t accepted_local = 0;
  std::size_t accepted_remote = 0;
  std::size_t rejected = 0;
  std::size_t lost = 0;
  double hit_rate = 0.0;       // accepted-and-survived over submissions
  double root_hit_rate = 0.0;  // retries folded into their original job
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_delivered = 0;
  std::uint64_t msgs_dropped = 0;
  std::uint64_t msgs_in_flight = 0;
  std::string decision_log;
};

Cell run_cell(const Intensity& intensity, std::size_t intensity_index,
              bool retries, Tick arrival_window) {
  const Tick horizon = arrival_window + 200;
  Cell cell;
  cell.intensity = intensity.name;
  cell.retries = retries;

  // A fresh generator per cell: every cell of the sweep sees the
  // byte-identical arrival sequence.
  WorkloadConfig wc;
  wc.seed = kSeed;
  wc.num_locations = kNodes;
  wc.mean_interarrival = 1.5;
  wc.laxity = 3.0;  // enough slack that a backed-off retry can still land
  WorkloadGenerator gen(wc, CostModel());

  ClusterConfig config;
  config.seed = kSeed;
  config.default_link.jitter = 1;
  config.default_link.drop = 0.02;
  ClusterSim sim(CostModel(), config);
  for (std::size_t i = 0; i < kNodes; ++i) {
    sim.add_node(gen.locations()[i], gen.node_supply(i, TimeInterval(0, horizon)));
  }

  if (intensity.faulty) {
    // Seeded per intensity, not per cell: both retry variants replay the
    // exact same hostile timeline.
    util::Rng fault_rng(kSeed + intensity_index);
    const faults::FaultSchedule schedule = faults::make_fault_schedule(
        fault_rng, kNodes, arrival_window, intensity.profile);
    cell.fault_events = schedule.size();
    sim.apply(schedule);
  }
  if (retries) {
    faults::RetryPolicy policy;
    policy.max_attempts = 4;
    policy.backoff_base = 1;
    policy.backoff_cap = 8;
    policy.jitter = 2;
    sim.set_retry_policy(policy, kSeed + intensity_index);
  }

  std::size_t originals = 0;
  for (const ClusterArrivalSpec& a :
       gen.make_cluster_arrivals(arrival_window, kNodes, kHotFraction)) {
    sim.submit(a.at, static_cast<NodeId>(a.origin), a.work);
    ++originals;
  }

  const ClusterReport report = sim.run(horizon);
  cell.originals = originals;
  cell.submitted = report.submitted();
  cell.resubmissions = report.resubmissions;
  cell.accepted_local = report.accepted(Placement::kLocal);
  cell.accepted_remote = report.accepted(Placement::kRemote);
  cell.rejected = report.rejected();
  cell.lost = report.lost();
  cell.hit_rate = report.deadline_hit_rate();
  cell.root_hit_rate = report.root_hit_rate();
  cell.msgs_sent = report.messages_sent;
  cell.msgs_delivered = report.messages_delivered;
  cell.msgs_dropped = report.messages_dropped;
  cell.msgs_in_flight = report.messages_in_flight;
  cell.decision_log = report.decision_log();
  return cell;
}

void print_cell(const Cell& c) {
  std::cout << c.intensity << (c.retries ? " +retries" : "          ")
            << ": faults=" << c.fault_events << " jobs=" << c.originals
            << " resubmit=" << c.resubmissions
            << " local=" << c.accepted_local << " remote=" << c.accepted_remote
            << " rejected=" << c.rejected << " lost=" << c.lost
            << " hit=" << c.hit_rate << " root_hit=" << c.root_hit_rate
            << "\n";
}

bool check_cell(const Cell& c, std::string& error) {
  if (c.msgs_sent != c.msgs_delivered + c.msgs_dropped + c.msgs_in_flight) {
    error = c.intensity + ": message accounting broke (sent " +
            std::to_string(c.msgs_sent) + " != delivered " +
            std::to_string(c.msgs_delivered) + " + dropped " +
            std::to_string(c.msgs_dropped) + " + in-flight " +
            std::to_string(c.msgs_in_flight) + ")";
    return false;
  }
  if (c.submitted != c.originals + c.resubmissions) {
    error = c.intensity + ": decision coverage broke (" +
            std::to_string(c.submitted) + " decisions for " +
            std::to_string(c.originals) + " jobs + " +
            std::to_string(c.resubmissions) + " retries)";
    return false;
  }
  if (!c.retries && c.resubmissions != 0) {
    error = c.intensity + ": retries disabled but " +
            std::to_string(c.resubmissions) + " resubmissions minted";
    return false;
  }
  if (c.fault_events == 0 && c.lost != 0) {
    error = c.intensity + ": no faults scheduled but " +
            std::to_string(c.lost) + " placements lost";
    return false;
  }
  return true;
}

void emit_cell(std::ofstream& out, const Cell& c, bool last) {
  out << "    {\"intensity\": \"" << c.intensity << "\", \"retries\": "
      << (c.retries ? "true" : "false")
      << ", \"fault_events\": " << c.fault_events
      << ", \"jobs\": " << c.originals
      << ", \"resubmissions\": " << c.resubmissions
      << ", \"submitted\": " << c.submitted
      << ", \"accepted_local\": " << c.accepted_local
      << ", \"accepted_remote\": " << c.accepted_remote
      << ", \"rejected\": " << c.rejected << ", \"lost\": " << c.lost
      << ", \"deadline_hit_rate\": " << c.hit_rate
      << ", \"root_hit_rate\": " << c.root_hit_rate
      << ", \"messages_sent\": " << c.msgs_sent
      << ", \"messages_delivered\": " << c.msgs_delivered
      << ", \"messages_dropped\": " << c.msgs_dropped
      << ", \"messages_in_flight\": " << c.msgs_in_flight << "}"
      << (last ? "" : ",") << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string path = "BENCH_faults.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      path = arg;
    }
  }
  const Tick arrival_window = smoke ? 120 : 400;

  const std::vector<Intensity> sweep = intensities();
  std::vector<Cell> cells;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    for (const bool retries : {false, true}) {
      cells.push_back(run_cell(sweep[i], i, retries, arrival_window));
      print_cell(cells.back());
      std::string error;
      if (!check_cell(cells.back(), error)) {
        std::cerr << "FATAL: " << error << "\n";
        return 1;
      }
    }
  }

  // The flagship is the hostile retry-storm cell: it must actually storm,
  // and an identically-seeded rerun must reproduce it byte for byte.
  const Cell& flagship = cells.back();
  if (flagship.resubmissions == 0) {
    std::cerr << "FATAL: the hostile retry cell minted no resubmissions — "
                 "the storm never fired\n";
    return 1;
  }
  const Cell rerun = run_cell(sweep.back(), sweep.size() - 1, true,
                              arrival_window);
  if (rerun.decision_log != flagship.decision_log ||
      rerun.resubmissions != flagship.resubmissions) {
    std::cerr << "FATAL: identical seeds produced different fault-sweep "
                 "runs\n";
    return 1;
  }
  std::cout << "determinism: flagship rerun identical (" << flagship.submitted
            << " decisions, " << flagship.resubmissions << " retries)\n";
  const std::string digest = decision_digest(flagship.decision_log);
  const std::string pinned = smoke ? kSmokeDigest : kFullDigest;
  std::cout << "flagship decision digest: " << digest << "\n";
  if (digest != pinned) {
    std::cerr << "FATAL: flagship decision digest " << digest
              << " differs from the pinned " << pinned << "\n";
    return 1;
  }

  std::ofstream out(path);
  out << "{\n"
      << "  \"bench\": \"e21_faults\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"workload\": {\n"
      << "    \"seed\": " << kSeed << ",\n"
      << "    \"nodes\": " << kNodes << ",\n"
      << "    \"arrival_window_ticks\": " << arrival_window << ",\n"
      << "    \"hot_fraction\": " << kHotFraction << ",\n"
      << "    \"mean_interarrival\": 1.5\n"
      << "  },\n"
      << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    emit_cell(out, cells[i], i + 1 == cells.size());
  }
  out << "  ],\n"
      << "  \"flagship\": {\n"
      << "    \"intensity\": \"" << flagship.intensity << "\",\n"
      << "    \"resubmissions\": " << flagship.resubmissions << ",\n"
      << "    \"deadline_hit_rate\": " << flagship.hit_rate << ",\n"
      << "    \"root_hit_rate\": " << flagship.root_hit_rate << ",\n"
      << "    \"decision_digest\": \"" << digest << "\",\n"
      << "    \"determinism\": \"rerun decision log identical\"\n"
      << "  }\n"
      << "}\n";
  if (!out.good()) {
    std::cerr << "FATAL: failed to write " << path << "\n";
    return 1;
  }
  std::cout << "wrote " << path << "\n";
  return 0;
}
