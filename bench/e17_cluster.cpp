// E17: federated cluster admission — deadline-hit rate, goodput, and
// forwarded fraction of the multi-node cluster layer, swept over node count
// × link loss, with a local-only baseline (max_remote_rounds = 0) run on the
// exact same workload for every cell. Writes BENCH_cluster_admission.json
// (pass a path as argv[1] to redirect).
//
// The flagship cell is the ISSUE acceptance configuration: 8 nodes, 5% link
// loss, a mid-run crash of the hottest peer followed by an audit-log
// recovery. The bench exits non-zero if the federated hit rate there falls
// below the local-only baseline, if two identically-seeded runs disagree on a
// single decision, or if the flagship decision log's FNV-1a 64 digest
// (flagship.decision_digest) differs from the pin beside kSeed. A deliberate
// decision change re-pins it.
//
// The workload is skewed on purpose: 70% of jobs arrive at node 0, so the
// hot node drowns unless the probe/offer/claim protocol moves work to the
// idle peers. Local-only runs answer "what would these nodes do alone?" —
// the gap between the two curves is what the federation buys, and how that
// gap erodes as the fabric gets lossier is the experiment.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "rota/cluster/cluster.hpp"
#include "rota/workload/generator.hpp"

namespace {

using namespace rota;
using namespace rota::cluster;

constexpr Tick kArrivalWindow = 400;
constexpr Tick kHorizon = 600;
constexpr double kHotFraction = 0.7;
constexpr std::uint64_t kSeed = 2026;
// Flagship decision-log digest for kSeed.
constexpr const char* kFlagshipDigest = "b805736886880956";

struct Cell {
  std::size_t nodes = 0;
  double loss = 0.0;
  bool federated = true;
  bool crash = false;

  std::size_t submitted = 0;
  std::size_t accepted_local = 0;
  std::size_t accepted_remote = 0;
  std::size_t rejected = 0;
  std::size_t lost = 0;
  double hit_rate = 0.0;
  double forwarded = 0.0;
  double goodput = 0.0;  // surviving accepted jobs per 100 ticks
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_dropped = 0;
  std::string decision_log;
};

WorkloadGenerator make_generator() {
  WorkloadConfig wc;
  wc.seed = kSeed;
  wc.num_locations = 8;
  wc.mean_interarrival = 1.0;  // oversubscribes the hot node
  wc.laxity = 3.0;             // enough slack that forwarding can pay off
  WorkloadGenerator gen(wc, CostModel());
  return gen;
}

Cell run_cell(std::size_t nodes, double loss, bool federated, bool crash) {
  Cell cell;
  cell.nodes = nodes;
  cell.loss = loss;
  cell.federated = federated;
  cell.crash = crash;

  // A fresh generator per cell: every cell (and its local-only twin) sees
  // the byte-identical arrival sequence.
  WorkloadGenerator gen = make_generator();

  ClusterConfig config;
  config.seed = kSeed;
  config.default_link.jitter = 1;
  config.default_link.drop = loss;
  if (!federated) config.node.max_remote_rounds = 0;

  ClusterSim sim(CostModel(), config);
  for (std::size_t i = 0; i < nodes; ++i) {
    sim.add_node(gen.locations()[i], gen.node_supply(i, TimeInterval(0, kHorizon)));
  }
  for (const ClusterArrivalSpec& a : gen.make_cluster_arrivals(
           kArrivalWindow, nodes, kHotFraction)) {
    sim.submit(a.at, static_cast<NodeId>(a.origin), a.work);
  }
  if (crash) {
    // The busiest forwarding target dies mid-run and comes back via
    // audit-log replay; placements inside the outage count as lost.
    sim.schedule_crash(kArrivalWindow / 2, 1);
    sim.schedule_restart(kArrivalWindow / 2 + 10, 1, /*recover=*/true);
  }

  const ClusterReport report = sim.run(kHorizon);
  cell.submitted = report.submitted();
  cell.accepted_local = report.accepted(Placement::kLocal);
  cell.accepted_remote = report.accepted(Placement::kRemote);
  cell.rejected = report.rejected();
  cell.lost = report.lost();
  cell.hit_rate = report.deadline_hit_rate();
  cell.forwarded = report.forwarded_fraction();
  cell.goodput = 100.0 *
                 static_cast<double>(report.accepted_total() - report.lost()) /
                 static_cast<double>(kArrivalWindow);
  cell.msgs_sent = report.messages_sent;
  cell.msgs_dropped = report.messages_dropped;
  cell.decision_log = report.decision_log();
  return cell;
}

void print_cell(const Cell& c) {
  std::cout << (c.federated ? "federated " : "local-only") << " nodes=" << c.nodes
            << " loss=" << c.loss << (c.crash ? " +crash" : "")
            << ": submitted=" << c.submitted << " local=" << c.accepted_local
            << " remote=" << c.accepted_remote << " rejected=" << c.rejected
            << " lost=" << c.lost << " hit=" << c.hit_rate
            << " fwd=" << c.forwarded << " goodput=" << c.goodput << "/100t\n";
}

void emit_cell(std::ofstream& out, const Cell& c, bool last) {
  out << "    {\"nodes\": " << c.nodes << ", \"loss\": " << c.loss
      << ", \"mode\": \"" << (c.federated ? "federated" : "local-only")
      << "\", \"crash\": " << (c.crash ? "true" : "false")
      << ", \"submitted\": " << c.submitted
      << ", \"accepted_local\": " << c.accepted_local
      << ", \"accepted_remote\": " << c.accepted_remote
      << ", \"rejected\": " << c.rejected << ", \"lost\": " << c.lost
      << ", \"deadline_hit_rate\": " << c.hit_rate
      << ", \"forwarded_fraction\": " << c.forwarded
      << ", \"goodput_per_100_ticks\": " << c.goodput
      << ", \"messages_sent\": " << c.msgs_sent
      << ", \"messages_dropped\": " << c.msgs_dropped << "}"
      << (last ? "" : ",") << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path =
      argc > 1 ? argv[1] : "BENCH_cluster_admission.json";

  const std::vector<std::size_t> node_counts = {2, 4, 8};
  const std::vector<double> losses = {0.0, 0.02, 0.05};

  std::vector<Cell> cells;
  for (const std::size_t n : node_counts) {
    for (const double loss : losses) {
      cells.push_back(run_cell(n, loss, /*federated=*/true, /*crash=*/false));
      print_cell(cells.back());
      cells.push_back(run_cell(n, loss, /*federated=*/false, /*crash=*/false));
      print_cell(cells.back());
    }
  }

  // Flagship: 8 nodes, 5% loss, mid-run crash + audit-log recovery.
  const Cell flagship = run_cell(8, 0.05, true, /*crash=*/true);
  const Cell flagship_local = run_cell(8, 0.05, false, /*crash=*/true);
  std::cout << "\nflagship (mid-run crash + recovery):\n";
  print_cell(flagship);
  print_cell(flagship_local);

  if (flagship.hit_rate < flagship_local.hit_rate) {
    std::cerr << "FATAL: federated hit rate " << flagship.hit_rate
              << " fell below the local-only baseline "
              << flagship_local.hit_rate << "\n";
    return 1;
  }

  // Determinism: the same seed must reproduce the flagship cell decision for
  // decision. A single divergent line fails the bench.
  const Cell rerun = run_cell(8, 0.05, true, /*crash=*/true);
  if (rerun.decision_log != flagship.decision_log) {
    std::cerr << "FATAL: identical seeds produced different decision logs\n";
    return 1;
  }
  std::cout << "determinism: rerun decision log identical ("
            << flagship.submitted << " decisions)\n";
  const std::string digest = decision_digest(flagship.decision_log);
  std::cout << "flagship decision digest: " << digest << "\n";
  if (digest != kFlagshipDigest) {
    std::cerr << "FATAL: flagship decision digest " << digest
              << " differs from the pinned " << kFlagshipDigest << "\n";
    return 1;
  }

  std::ofstream out(path);
  out << "{\n"
      << "  \"bench\": \"e17_cluster\",\n"
      << "  \"workload\": {\n"
      << "    \"seed\": " << kSeed << ",\n"
      << "    \"arrival_window_ticks\": " << kArrivalWindow << ",\n"
      << "    \"horizon_ticks\": " << kHorizon << ",\n"
      << "    \"hot_fraction\": " << kHotFraction << ",\n"
      << "    \"mean_interarrival\": 1.0\n"
      << "  },\n"
      << "  \"sweep\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    emit_cell(out, cells[i], /*last=*/false);
  }
  emit_cell(out, flagship, /*last=*/false);
  emit_cell(out, flagship_local, /*last=*/true);
  out << "  ],\n"
      << "  \"flagship\": {\n"
      << "    \"federated_hit_rate\": " << flagship.hit_rate << ",\n"
      << "    \"local_only_hit_rate\": " << flagship_local.hit_rate << ",\n"
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
