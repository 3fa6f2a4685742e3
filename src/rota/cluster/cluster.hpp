// The cluster control loop: N ClusterNodes federated over a MessageFabric.
//
// ClusterSim owns the nodes, their FabricTransports, the fabric, and a fault
// schedule, and advances everything in one deterministic tick loop:
//
//   faults → deliveries → arrivals → node ticks → transport flush
//
// with every stage iterating nodes in id order. Deliveries are dispatched in
// the fabric's global (deliver_at, seq) order — each message is pushed into
// its destination transport and that node is pumped immediately — and sends
// staged on the transports are flushed to the fabric per node in id order at
// end of tick, so sequence numbers are assigned exactly as the historical
// outbox-drain loop assigned them. All randomness lives in the seeded fabric
// (latency jitter, loss, reorder) and in whatever generator produced the
// arrival list, so two runs with the same seed and schedule produce
// byte-identical decision logs — the property the determinism tests and the
// bench harness assert.
//
// The report separates *control* from *execution*: decisions and committed
// placements come out of the control loop; schedule_into() replays the
// surviving placements into the plan-following Simulator for the end-to-end
// deadline check (admitted ∧ not lost to a crash ⇒ deadline met).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "rota/cluster/fabric.hpp"
#include "rota/cluster/node.hpp"
#include "rota/faults/schedule.hpp"
#include "rota/io/scenario.hpp"
#include "rota/sim/simulator.hpp"

namespace rota::cluster {

struct ClusterConfig {
  std::uint64_t seed = 1;
  NodeConfig node;          // defaults for nodes added without an override
  LinkParams default_link;  // defaults for links never set explicitly
};

/// One job entering the cluster at a node.
struct ClusterArrival {
  Tick at = 0;
  NodeId origin = kNoNode;
  ClusterJob job;
};

/// Everything the control loop decided, plus derived rates.
struct ClusterReport {
  std::vector<JobDecision> decisions;
  std::vector<PlacedAdmission> placements;

  // Fabric totals over the run. sent == dropped + delivered + in_flight:
  // every message is accounted exactly once (the `cluster` fuzz family pins
  // this, partitions and crashes included).
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_in_flight = 0;  // still queued at the horizon

  // Closed-loop retries (set_retry_policy): how many rejected jobs were
  // resubmitted, and which root submission each retry id descends from.
  std::uint64_t resubmissions = 0;
  std::map<std::uint64_t, std::uint64_t> retry_root;  // retry id -> root id

  std::size_t submitted() const { return decisions.size(); }
  std::size_t accepted(Placement kind) const;
  std::size_t accepted_total() const;
  std::size_t rejected() const;
  std::size_t lost() const;

  /// Accepted-and-survived over submitted. By plan-following soundness every
  /// surviving placement meets its deadline, so this *is* the deadline-hit
  /// rate (test_cluster.cpp checks the implication end to end).
  double deadline_hit_rate() const;
  /// Remote placements over all accepted — how much the federation moved.
  double forwarded_fraction() const;
  /// Per *root* submission (retries folded into their original): the
  /// fraction whose closed loop ended with a surviving accept. With no
  /// retries this equals deadline_hit_rate().
  double root_hit_rate() const;

  /// Canonical one-line-per-decision log; equal seeds ⇒ equal strings.
  std::string decision_log() const;

  /// Replays every surviving placement into `sim` (plan-following mode).
  void schedule_into(Simulator& sim) const;
};

/// FNV-1a 64 over a decision log, as 16 hex digits: the pin a cluster bench
/// checks its run against, so a changed decision cannot pass unnoticed.
std::string decision_digest(const std::string& decision_log);

class ClusterSim {
 public:
  ClusterSim(CostModel phi, ClusterConfig config);

  /// Adds a node hosting `site` with `supply`; returns its id (dense, in
  /// insertion order). All existing nodes learn the new peer and vice versa.
  NodeId add_node(Location site, ResourceSet supply);
  NodeId add_node(Location site, ResourceSet supply, NodeConfig node_config);

  /// Symmetric link override (both directions); also refreshes the latency
  /// estimate each endpoint uses for deadline budgeting.
  void set_link(NodeId a, NodeId b, LinkParams params);

  /// A job arriving at `origin` at `at`; returns the assigned job id.
  std::uint64_t submit(Tick at, NodeId origin, WorkSpec work);

  // Fault schedule. Crashes drop the node's ledger and every in-flight
  // conversation; restarts rebuild from base supply, replaying the audit log
  // when `recover` is set. Partitions cut the wire: traffic between the pair
  // — already in flight included — is dropped until healed, and nodes
  // degrade to timeouts, retries, and finally local-only behaviour.
  void schedule_crash(Tick at, NodeId node);
  void schedule_restart(Tick at, NodeId node, bool recover);
  void schedule_partition(Tick at, NodeId a, NodeId b);
  void schedule_heal(Tick at, NodeId a, NodeId b);

  /// Applies a whole FaultSchedule (validated against this cluster's size).
  /// Events land in schedule order — same-tick events apply as written.
  void apply(const faults::FaultSchedule& schedule);

  /// Enables closed-loop clients: after the run's regular arrivals, every
  /// rejected job is resubmitted at its origin under `policy` (fresh job id,
  /// same spec; earliest start pushed to the resubmission tick), with
  /// backoff jitter drawn from a dedicated Rng seeded with `seed` — retries
  /// never perturb the fabric's stream, so a retry-storm run stays exactly
  /// as replayable as a fault-free one.
  void set_retry_policy(const faults::RetryPolicy& policy, std::uint64_t seed);

  /// Runs the control loop over [0, horizon) and returns the report.
  /// Single-shot: a ClusterSim instance runs once.
  ClusterReport run(Tick horizon);

  std::size_t size() const { return nodes_.size(); }
  ClusterNode& node(NodeId id) { return *nodes_.at(id); }
  const ClusterNode& node(NodeId id) const { return *nodes_.at(id); }
  MessageFabric& fabric() { return fabric_; }
  /// Union of every node's base supply (for building the execution Simulator).
  ResourceSet total_supply() const;

 private:
  struct Fault {
    enum class Kind { kCrash, kRestart, kPartition, kHeal };
    Tick at = 0;
    Kind kind = Kind::kCrash;
    NodeId a = kNoNode;
    NodeId b = kNoNode;  // partition/heal peer
    bool recover = false;
  };

  void apply_faults(Tick now);
  void mark_lost();
  /// End-of-tick retry scan: every decision appended since the last scan
  /// that rejected a job with attempt budget left is queued for
  /// resubmission at a backoff-jittered later tick (skipped when that tick
  /// falls past the horizon — every queued retry gets a decision).
  void scan_for_retries(Tick now, Tick horizon);
  /// Injects the retries due at `now` (after the tick's regular arrivals).
  void inject_retries(Tick now);

  CostModel phi_;
  ClusterConfig config_;
  MessageFabric fabric_;
  /// Heap-held so node back-pointers survive moving the ClusterSim
  /// (cluster_from_scenario returns one by value).
  std::unique_ptr<ClusterEvents> events_ = std::make_unique<ClusterEvents>();
  /// One FabricTransport per node, heap-held for the same reason as nodes_.
  std::vector<std::unique_ptr<FabricTransport>> transports_;
  std::vector<std::unique_ptr<ClusterNode>> nodes_;
  std::vector<ResourceSet> supplies_;  // per node, for total_supply()
  std::vector<ClusterArrival> arrivals_;
  std::vector<Fault> faults_;
  /// Per node: (crash_at, restart_at or kTickMax, recovered) intervals, for
  /// marking placements the crash destroyed.
  std::vector<std::vector<std::tuple<Tick, Tick, bool>>> outages_;
  std::uint64_t next_job_id_ = 0;
  bool ran_ = false;

  // Closed-loop retry engine (inactive until set_retry_policy()).
  bool retries_enabled_ = false;
  faults::RetryPolicy retry_policy_;
  util::Rng retry_rng_;
  std::size_t decisions_seen_ = 0;             // scan cursor into decisions
  std::map<std::uint64_t, WorkSpec> specs_;    // job id -> submitted spec
  std::map<std::uint64_t, NodeId> origins_;    // job id -> origin node
  std::map<std::uint64_t, std::uint64_t> retry_root_;  // retry id -> root id
  std::map<std::uint64_t, std::size_t> attempts_;      // root id -> submissions
  std::map<Tick, std::vector<ClusterArrival>> retry_queue_;
  std::uint64_t resubmissions_ = 0;
};

/// Builds a cluster from a scenario's `node`/`link` section: one ClusterNode
/// per `node` line (in file order, with its declared lanes), links applied
/// symmetrically, and each node's supply = the slice of the scenario supply
/// whose types live at (or depart from) the node's location. Throws
/// std::invalid_argument when the scenario declares no nodes.
ClusterSim cluster_from_scenario(const Scenario& scenario, CostModel phi,
                                 ClusterConfig config);

}  // namespace rota::cluster
