#include "rota/cluster/cluster.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "rota/cluster/digest.hpp"
#include "rota/cluster/fabric.hpp"
#include "rota/faults/schedule.hpp"
#include "rota/io/scenario.hpp"
#include "rota/sim/simulator.hpp"
#include "rota/workload/generator.hpp"

namespace rota::cluster {
namespace {

// ---------------------------------------------------------------------------
// MessageFabric

Message probe_msg(NodeId from, NodeId to, std::uint64_t job) {
  Message m;
  m.kind = MsgKind::kProbe;
  m.from = from;
  m.to = to;
  m.job = job;
  return m;
}

TEST(MessageFabric, DeliversAfterLinkLatency) {
  MessageFabric fabric(2, /*seed=*/7);
  fabric.send(probe_msg(0, 1, 1), /*now=*/0);
  EXPECT_TRUE(fabric.deliver_due(0).empty());  // latency >= 1
  const auto due = fabric.deliver_due(1);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].job, 1u);
  EXPECT_EQ(fabric.total_delivered(), 1u);
  EXPECT_EQ(fabric.in_flight(), 0u);
}

TEST(MessageFabric, RejectsSelfSends) {
  MessageFabric fabric(2, 7);
  EXPECT_THROW(fabric.send(probe_msg(0, 0, 1), 0), std::invalid_argument);
}

TEST(MessageFabric, SameSeedSameDeliverySequence) {
  LinkParams lossy;
  lossy.latency = 2;
  lossy.jitter = 3;
  lossy.drop = 0.2;
  lossy.reorder = 0.3;
  auto run = [&] {
    MessageFabric fabric(3, /*seed=*/42, lossy);
    std::vector<std::uint64_t> seen;
    std::uint64_t next_job = 0;
    for (Tick now = 0; now < 50; ++now) {
      for (const Message& m : fabric.deliver_due(now)) seen.push_back(m.job);
      fabric.send(probe_msg(0, 1, next_job++), now);
      fabric.send(probe_msg(1, 2, next_job++), now);
    }
    return seen;
  };
  const auto a = run();
  const auto b = run();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(MessageFabric, PartitionDropsBothDirectionsUntilHealed) {
  MessageFabric fabric(2, 7);
  fabric.partition(0, 1);
  EXPECT_TRUE(fabric.partitioned(1, 0));
  fabric.send(probe_msg(0, 1, 1), 0);
  fabric.send(probe_msg(1, 0, 2), 0);
  EXPECT_EQ(fabric.total_dropped(), 2u);
  fabric.heal(0, 1);
  fabric.send(probe_msg(0, 1, 3), 0);
  EXPECT_EQ(fabric.deliver_due(10).size(), 1u);
}

TEST(MessageFabric, DownNodeDropsAtSendAndAtDelivery) {
  MessageFabric fabric(2, 7);
  fabric.send(probe_msg(0, 1, 1), 0);  // on the wire...
  fabric.set_down(1, true);
  EXPECT_TRUE(fabric.deliver_due(10).empty());  // ...died before delivery
  fabric.send(probe_msg(0, 1, 2), 10);          // dropped at send
  EXPECT_EQ(fabric.total_dropped(), 2u);
  fabric.set_down(1, false);
  fabric.send(probe_msg(0, 1, 3), 20);
  EXPECT_EQ(fabric.deliver_due(30).size(), 1u);
}

TEST(MessageFabric, DropProbabilityValidatedAndApplied) {
  LinkParams always_drop;
  always_drop.drop = 1.0;
  MessageFabric fabric(2, 7, always_drop);
  for (int i = 0; i < 10; ++i) fabric.send(probe_msg(0, 1, i), 0);
  EXPECT_EQ(fabric.total_dropped(), 10u);
  EXPECT_TRUE(fabric.deliver_due(100).empty());
}

TEST(MessageFabric, PartitionPurgesInFlightCrossingMessages) {
  // Regression: a cut that lands after send but before delivery must behave
  // like the wire went dead — queued messages crossing the new partition are
  // dropped and counted exactly once, traffic on other pairs survives.
  MessageFabric fabric(3, 7);
  fabric.send(probe_msg(0, 1, 1), 0);
  fabric.send(probe_msg(1, 0, 2), 0);  // same cut, opposite direction
  fabric.send(probe_msg(0, 2, 3), 0);  // different pair: untouched
  ASSERT_EQ(fabric.in_flight(), 3u);
  fabric.partition(0, 1);
  EXPECT_EQ(fabric.total_dropped(), 2u);
  EXPECT_EQ(fabric.in_flight(), 1u);
  // Re-cutting an already-partitioned pair is idempotent: nothing new to
  // purge, nothing double-counted.
  fabric.partition(1, 0);
  EXPECT_EQ(fabric.total_dropped(), 2u);
  const auto due = fabric.deliver_due(10);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].job, 3u);
}

// ---------------------------------------------------------------------------
// Supply digests

TEST(SupplyDigest, HullIsConservativeAndCompact) {
  Location site("dg-l1");
  ResourceSet supply;
  // A sawtooth with many segments.
  for (Tick t = 0; t < 64; t += 2) {
    supply.add(1 + (t / 2) % 5, TimeInterval(t, t + 2), LocatedType::cpu(site));
  }
  const ResourceSet hull = compact_hull(supply, /*max_segments=*/4);
  for (const LocatedType& type : hull.types()) {
    EXPECT_LE(hull.availability(type).segments().size(), 4u);
    // Never overstates: the true profile dominates the digest everywhere.
    EXPECT_TRUE(supply.availability(type).dominates(hull.availability(type)));
  }
}

TEST(SupplyDigest, MadeFromLedgerResidual) {
  Location site("dg-l2");
  ResourceSet supply;
  supply.add(8, TimeInterval(0, 32), LocatedType::cpu(site));
  CommitmentLedger ledger(supply, 0);
  const SupplyDigest digest = make_digest(ledger, site, /*now=*/4, 8);
  EXPECT_EQ(digest.site, site);
  EXPECT_EQ(digest.as_of, 4);
  EXPECT_EQ(digest.revision, ledger.revision());
  // from(now) trims history: nothing before tick 4 is advertised.
  for (const LocatedType& type : digest.free.types()) {
    EXPECT_GE(digest.free.availability(type).segments().front().interval.start(), 4);
  }
}

// ---------------------------------------------------------------------------
// ClusterSim end-to-end

WorkSpec chunk_job(const std::string& name, std::vector<std::int64_t> chunks,
                   Tick s, Tick d) {
  WorkSpec w;
  w.actor = name;
  w.chunk_weights = std::move(chunks);
  w.state_size = 1;
  w.earliest_start = s;
  w.deadline = d;
  return w;
}

/// Two nodes: a starved origin and a fast peer one hop away.
ClusterSim two_node_cluster(std::uint64_t seed = 1) {
  ClusterConfig config;
  config.seed = seed;
  ClusterSim sim(CostModel(), config);
  ResourceSet slow, fast;
  slow.add(1, TimeInterval(0, 200), LocatedType::cpu(Location("cl-a")));
  fast.add(16, TimeInterval(0, 200), LocatedType::cpu(Location("cl-b")));
  sim.add_node(Location("cl-a"), slow);
  sim.add_node(Location("cl-b"), fast);
  return sim;
}

TEST(ClusterSim, LocalAdmissionWhenCapacitySuffices) {
  ClusterSim sim = two_node_cluster();
  // 8 cpu at rate 1 takes 8 ticks; window 40 is plenty.
  sim.submit(0, 0, chunk_job("local", {1}, 0, 40));
  const ClusterReport report = sim.run(60);
  ASSERT_EQ(report.decisions.size(), 1u);
  EXPECT_EQ(report.decisions[0].outcome, Placement::kLocal);
  EXPECT_EQ(report.decisions[0].placed, 0u);
  EXPECT_EQ(report.forwarded_fraction(), 0.0);
}

TEST(ClusterSim, ForwardsOverflowToFastPeer) {
  ClusterSim sim = two_node_cluster();
  // 16 cpu at rate 1 needs 16 ticks but the window is 12 — locally
  // infeasible; the fast peer does it in one tick after a 2-tick transfer.
  sim.submit(10, 0, chunk_job("overflow", {2}, 10, 22));
  const ClusterReport report = sim.run(60);
  ASSERT_EQ(report.decisions.size(), 1u);
  const JobDecision& d = report.decisions[0];
  EXPECT_EQ(d.outcome, Placement::kRemote) << d.to_string();
  EXPECT_EQ(d.placed, 1u);
  EXPECT_GE(d.remote_rounds, 1u);
  EXPECT_LE(d.planned_finish, 22);
  EXPECT_EQ(report.forwarded_fraction(), 1.0);
  // The placement is recorded at the target.
  ASSERT_EQ(report.placements.size(), 1u);
  EXPECT_EQ(report.placements[0].node, 1u);
}

TEST(ClusterSim, RejectsWhenDeadlineBudgetExcludesEveryPeer) {
  ClusterConfig config;
  ClusterSim sim(CostModel(), config);
  ResourceSet slow, fast;
  slow.add(1, TimeInterval(0, 200), LocatedType::cpu(Location("db-a")));
  fast.add(16, TimeInterval(0, 200), LocatedType::cpu(Location("db-b")));
  sim.add_node(Location("db-a"), slow);
  sim.add_node(Location("db-b"), fast);
  LinkParams far;
  far.latency = 30;  // transfer alone overruns the 12-tick window
  sim.set_link(0, 1, far);
  sim.submit(10, 0, chunk_job("doomed", {2}, 10, 22));
  const ClusterReport report = sim.run(80);
  ASSERT_EQ(report.decisions.size(), 1u);
  EXPECT_EQ(report.decisions[0].outcome, Placement::kRejected);
  EXPECT_NE(report.decisions[0].reason.find("deadline budget"), std::string::npos)
      << report.decisions[0].reason;
  // The budget check fired before any probe went out for this job.
  EXPECT_EQ(report.decisions[0].remote_rounds, 0u);
}

TEST(ClusterSim, LocalOnlyModeNeverForwards) {
  ClusterConfig config;
  config.node.max_remote_rounds = 0;
  ClusterSim sim(CostModel(), config);
  ResourceSet slow, fast;
  slow.add(1, TimeInterval(0, 200), LocatedType::cpu(Location("lo-a")));
  fast.add(16, TimeInterval(0, 200), LocatedType::cpu(Location("lo-b")));
  sim.add_node(Location("lo-a"), slow);
  sim.add_node(Location("lo-b"), fast);
  sim.submit(10, 0, chunk_job("stuck", {2}, 10, 22));
  const ClusterReport report = sim.run(60);
  ASSERT_EQ(report.decisions.size(), 1u);
  EXPECT_EQ(report.decisions[0].outcome, Placement::kRejected);
  EXPECT_EQ(report.forwarded_fraction(), 0.0);
}

TEST(ClusterSim, StaleOfferIsRevalidatedAtClaimTime) {
  // Both origins race for the same fast peer in the same tick. Probes are
  // speculative, so both get offers; the claims serialize at the target and
  // the loser must live with a claim-reject (stale) — never a double-commit.
  ClusterConfig config;
  ClusterSim sim(CostModel(), config);
  ResourceSet none_a, none_b, fast;
  none_a.add(1, TimeInterval(0, 200), LocatedType::cpu(Location("st-a")));
  none_b.add(1, TimeInterval(0, 200), LocatedType::cpu(Location("st-b")));
  // Room for exactly one of the two 16-cpu jobs within their windows.
  fast.add(2, TimeInterval(0, 200), LocatedType::cpu(Location("st-c")));
  sim.add_node(Location("st-a"), none_a);
  sim.add_node(Location("st-b"), none_b);
  sim.add_node(Location("st-c"), fast);
  sim.submit(10, 0, chunk_job("race0", {2}, 10, 24));
  sim.submit(10, 1, chunk_job("race1", {2}, 10, 24));
  const ClusterReport report = sim.run(80);
  ASSERT_EQ(report.decisions.size(), 2u);
  std::size_t remote = 0;
  for (const JobDecision& d : report.decisions) {
    if (d.outcome == Placement::kRemote) ++remote;
  }
  EXPECT_LE(remote, 1u);  // the target never over-commits
  EXPECT_LE(report.placements.size(), 1u);
}

TEST(ClusterSim, SameSeedSameDecisionLog) {
  auto run = [] {
    WorkloadConfig wc;
    wc.seed = 11;
    wc.num_locations = 4;
    wc.mean_interarrival = 4.0;
    WorkloadGenerator gen(wc, CostModel());
    ClusterConfig config;
    config.seed = 11;
    config.default_link.jitter = 2;
    config.default_link.drop = 0.05;
    ClusterSim sim(CostModel(), config);
    for (std::size_t i = 0; i < 4; ++i) {
      sim.add_node(gen.locations()[i], gen.node_supply(i, TimeInterval(0, 400)));
    }
    sim.schedule_partition(60, 0, 1);
    sim.schedule_heal(100, 0, 1);
    for (const ClusterArrivalSpec& a :
         gen.make_cluster_arrivals(200, 4, /*hot_fraction=*/0.6)) {
      sim.submit(a.at, static_cast<NodeId>(a.origin), a.work);
    }
    return sim.run(300);
  };
  const ClusterReport a = run();
  const ClusterReport b = run();
  EXPECT_FALSE(a.decisions.empty());
  EXPECT_EQ(a.decision_log(), b.decision_log());
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
}

TEST(ClusterSim, AdmittedPlacementsMeetDeadlinesInSimulator) {
  // End-to-end soundness: every placement the cluster committed (and no
  // crash destroyed) executes to its deadline in the plan-following sim.
  WorkloadConfig wc;
  wc.seed = 23;
  wc.num_locations = 3;
  wc.mean_interarrival = 5.0;
  WorkloadGenerator gen(wc, CostModel());
  ClusterConfig config;
  config.seed = 23;
  ClusterSim sim(CostModel(), config);
  for (std::size_t i = 0; i < 3; ++i) {
    sim.add_node(gen.locations()[i], gen.node_supply(i, TimeInterval(0, 400)));
  }
  for (const ClusterArrivalSpec& a : gen.make_cluster_arrivals(150, 3, 0.5)) {
    sim.submit(a.at, static_cast<NodeId>(a.origin), a.work);
  }
  const ResourceSet total = sim.total_supply();
  const ClusterReport report = sim.run(250);
  ASSERT_GT(report.accepted_total(), 0u);

  Simulator exec(total, 0, ExecutionMode::kPlanFollowing);
  report.schedule_into(exec);
  const SimReport outcome = exec.run(400);
  EXPECT_EQ(outcome.met(), outcome.outcomes.size());
  EXPECT_DOUBLE_EQ(outcome.miss_rate(), 0.0);
}

TEST(ClusterSim, CrashLosesPlacementsUnlessRecovered) {
  auto build = [] {
    ClusterSim sim = two_node_cluster();
    sim.submit(0, 1, chunk_job("victim", {8, 8}, 0, 60));
    return sim;
  };
  {
    ClusterSim sim = build();
    sim.schedule_crash(3, 1);  // mid-plan, never restarted
    const ClusterReport report = sim.run(80);
    ASSERT_EQ(report.decisions.size(), 1u);
    EXPECT_EQ(report.decisions[0].outcome, Placement::kLocal);
    EXPECT_TRUE(report.decisions[0].lost);
    EXPECT_EQ(report.lost(), 1u);
  }
  {
    ClusterSim sim = build();
    sim.schedule_crash(3, 1);
    sim.schedule_restart(5, 1, /*recover=*/true);  // audit-log replay
    const ClusterReport report = sim.run(80);
    ASSERT_EQ(report.decisions.size(), 1u);
    EXPECT_FALSE(report.decisions[0].lost);
    EXPECT_EQ(report.lost(), 0u);
  }
}

TEST(ClusterSim, SameTickCrashRestartBounceKeepsSameTickPlacements) {
  // Faults apply at the head of the tick: a crash→restart bounce at tick t
  // finishes before tick-t arrivals are decided, so a placement stamped at t
  // can only postdate the outage and must survive. The cluster fuzz family's
  // independent loss referee flushed out the old `>=` comparison that marked
  // such placements lost.
  ClusterSim sim = two_node_cluster();
  sim.submit(3, 1, chunk_job("bounce", {4}, 3, 40));
  sim.schedule_crash(3, 1);
  sim.schedule_restart(3, 1, /*recover=*/false);
  const ClusterReport report = sim.run(60);
  ASSERT_EQ(report.decisions.size(), 1u);
  EXPECT_EQ(report.decisions[0].outcome, Placement::kLocal);
  EXPECT_FALSE(report.decisions[0].lost);
  EXPECT_EQ(report.lost(), 0u);
}

TEST(ClusterSim, ApplyFaultScheduleMatchesManualScheduling) {
  const auto run = [](bool via_schedule) {
    ClusterSim sim = two_node_cluster();
    sim.submit(0, 1, chunk_job("wal", {1, 1}, 0, 60));
    sim.submit(10, 0, chunk_job("cut", {2}, 10, 26));
    if (via_schedule) {
      faults::FaultSchedule s;
      s.crash(4, 1);
      s.restart(6, 1, /*recover=*/true);
      s.partition(8, 0, 1);
      s.heal(30, 0, 1);
      sim.apply(s);
    } else {
      sim.schedule_crash(4, 1);
      sim.schedule_restart(6, 1, /*recover=*/true);
      sim.schedule_partition(8, 0, 1);
      sim.schedule_heal(30, 0, 1);
    }
    return sim.run(80);
  };
  const ClusterReport manual = run(false);
  const ClusterReport applied = run(true);
  EXPECT_FALSE(applied.decisions.empty());
  EXPECT_EQ(applied.decision_log(), manual.decision_log());
  EXPECT_EQ(applied.messages_sent, manual.messages_sent);
  EXPECT_EQ(applied.messages_dropped, manual.messages_dropped);
}

TEST(ClusterSim, ApplyValidatesAgainstClusterSize) {
  ClusterSim sim = two_node_cluster();
  faults::FaultSchedule s;
  s.crash(4, 7);  // no such node
  EXPECT_THROW(sim.apply(s), std::invalid_argument);
}

TEST(ClusterSim, RecoveredLedgerMatchesPreCrashState) {
  ClusterSim sim = two_node_cluster();
  sim.submit(0, 1, chunk_job("wal", {1, 1}, 0, 60));
  sim.schedule_crash(4, 1);
  sim.schedule_restart(6, 1, /*recover=*/true);
  sim.run(40);
  const ClusterNode& node = sim.node(1);
  // The replayed ledger carries the pre-crash commitment, and replaying the
  // surviving audit log onto a second fresh ledger reproduces it exactly —
  // compared at the same time t: the node's ledger has expired everything
  // before its clock, so the reference moves there and expires too.
  ASSERT_EQ(node.ledger().admitted().size(), 1u);
  ResourceSet supply;
  supply.add(16, TimeInterval(0, 200), LocatedType::cpu(Location("cl-b")));
  CommitmentLedger reference(supply, 0);
  EXPECT_EQ(node.audit().replay_into(reference), 1u);
  reference.advance_to(node.ledger().now());
  reference.expire();
  EXPECT_EQ(reference.revision(), node.ledger().revision());
  EXPECT_EQ(reference.residual(), node.ledger().residual());
}

TEST(ClusterSim, CrashedOriginRejectsInFlightConversations) {
  ClusterSim sim = two_node_cluster();
  // Locally infeasible; the origin starts probing, then dies before the
  // claim can conclude.
  sim.submit(10, 0, chunk_job("orphaned", {2}, 10, 22));
  sim.schedule_crash(11, 0);
  const ClusterReport report = sim.run(60);
  ASSERT_EQ(report.decisions.size(), 1u);
  EXPECT_EQ(report.decisions[0].outcome, Placement::kRejected);
  EXPECT_NE(report.decisions[0].reason.find("crashed"), std::string::npos);
}

TEST(ClusterSim, PartitionDegradesToLocalOnlyBehaviour) {
  ClusterSim sim = two_node_cluster();
  sim.schedule_partition(0, 0, 1);
  sim.submit(10, 0, chunk_job("cut-off", {2}, 10, 26));
  const ClusterReport report = sim.run(80);
  ASSERT_EQ(report.decisions.size(), 1u);
  // Probes vanish into the partition; retries burn out; the job ends
  // rejected rather than hanging forever.
  EXPECT_EQ(report.decisions[0].outcome, Placement::kRejected);
  EXPECT_GT(report.messages_dropped, 0u);
}

TEST(ClusterSim, RetryStormResubmitsUntilThePeerComesBack) {
  // Closed-loop clients: the job is locally infeasible at the starved origin
  // and the fast peer is down, so the first attempts reject. Retries carry a
  // fresh job id, inherit the root's deadline, and keep resubmitting with
  // capped backoff until the peer restarts and a forward lands.
  const auto run = [] {
    ClusterSim sim = two_node_cluster();
    sim.schedule_crash(0, 1);
    sim.schedule_restart(24, 1, /*recover=*/true);
    faults::RetryPolicy policy;
    policy.max_attempts = 8;
    policy.backoff_base = 1;
    policy.backoff_cap = 4;
    policy.jitter = 1;
    sim.set_retry_policy(policy, /*seed=*/5);
    // 64 cpu-ticks of work: the 1-cpu origin can't finish before tick 74,
    // but the 16-cpu peer clears it in 4 once it is back.
    sim.submit(10, 0, chunk_job("storm", {8}, 10, 60));
    return sim.run(120);
  };
  const ClusterReport report = run();
  ASSERT_GT(report.resubmissions, 0u);
  EXPECT_EQ(report.retry_root.size(), report.resubmissions);
  // Every decision is accounted for: one per original job plus one per retry.
  EXPECT_EQ(report.decisions.size(), 1u + report.resubmissions);
  for (const auto& [retry, root] : report.retry_root) {
    EXPECT_EQ(root, 0u);
    EXPECT_GT(retry, 0u);
  }
  // The storm converges: some attempt of the root job was accepted and ran.
  EXPECT_DOUBLE_EQ(report.root_hit_rate(), 1.0);

  // Same schedule, same policy, same seeds — byte-identical replay.
  const ClusterReport replay = run();
  EXPECT_EQ(replay.decision_log(), report.decision_log());
  EXPECT_EQ(replay.resubmissions, report.resubmissions);
  EXPECT_EQ(replay.messages_sent, report.messages_sent);
}

TEST(ClusterSim, RetryPolicyRefusedAfterRun) {
  ClusterSim sim = two_node_cluster();
  sim.run(10);
  EXPECT_THROW(sim.set_retry_policy(faults::RetryPolicy{}, 1),
               std::logic_error);
}

TEST(ClusterSim, GossipPopulatesPeerDigests) {
  ClusterSim sim = two_node_cluster();
  sim.submit(30, 0, chunk_job("late", {1}, 30, 70));
  sim.run(60);
  // Default gossip period 8: by tick 60 both nodes have heard from each
  // other repeatedly.
  EXPECT_EQ(sim.node(0).digests().size(), 1u);
  EXPECT_EQ(sim.node(1).digests().size(), 1u);
  EXPECT_GT(sim.node(0).digests().at(1).as_of, 0);
}

// ---------------------------------------------------------------------------
// Scenario round trip + construction

TEST(ClusterScenario, NodesAndLinksRoundTrip) {
  const std::string text =
      "supply cpu sa 4 0 100\n"
      "supply cpu sb 8 0 100\n"
      "node alpha sa 2\n"
      "node beta sb\n"
      "link alpha beta 3 1 50\n";
  const Scenario s = parse_scenario_string(text);
  ASSERT_EQ(s.nodes.size(), 2u);
  EXPECT_EQ(s.nodes[0].name, "alpha");
  EXPECT_EQ(s.nodes[0].lanes, 2u);
  EXPECT_EQ(s.nodes[1].lanes, 1u);
  ASSERT_EQ(s.links.size(), 1u);
  EXPECT_EQ(s.links[0].latency, 3);
  EXPECT_EQ(s.links[0].jitter, 1);
  EXPECT_EQ(s.links[0].drop_permille, 50);

  const Scenario reparsed = parse_scenario_string(scenario_to_string(s));
  EXPECT_EQ(reparsed, s);
}

TEST(ClusterScenario, OldFilesWithoutClusterSectionStillParse) {
  const Scenario s = parse_scenario_string(
      "supply cpu l1 4 0 10\n"
      "computation c 0 8\n"
      "  actor a l1\n"
      "    evaluate 1\n"
      "end\n");
  EXPECT_TRUE(s.nodes.empty());
  EXPECT_TRUE(s.links.empty());
  ASSERT_EQ(s.computations.size(), 1u);
}

TEST(ClusterScenario, ParserRejectsMalformedClusterStatements) {
  EXPECT_THROW(parse_scenario_string("node solo\n"), ScenarioParseError);
  EXPECT_THROW(parse_scenario_string("node a la\nnode a lb\n"), ScenarioParseError);
  EXPECT_THROW(parse_scenario_string("node a la\nlink a ghost 2\n"),
               ScenarioParseError);
  EXPECT_THROW(parse_scenario_string("node a la\nnode b lb\nlink a b 0\n"),
               ScenarioParseError);
  EXPECT_THROW(parse_scenario_string("node a la\nnode b lb\nlink a b 1 0 2000\n"),
               ScenarioParseError);
}

TEST(ClusterScenario, BuildsRunnableClusterFromScenario) {
  const Scenario s = parse_scenario_string(
      "supply cpu fa 1 0 200\n"
      "supply cpu fb 16 0 200\n"
      "node a fa\n"
      "node b fb\n"
      "link a b 1\n");
  ClusterSim sim = cluster_from_scenario(s, CostModel(), ClusterConfig{});
  ASSERT_EQ(sim.size(), 2u);
  sim.submit(10, 0, chunk_job("sc", {2}, 10, 22));
  const ClusterReport report = sim.run(60);
  ASSERT_EQ(report.decisions.size(), 1u);
  EXPECT_EQ(report.decisions[0].outcome, Placement::kRemote);
}

TEST(ClusterScenario, FaultStatementsDriveTheBuiltCluster) {
  // `fault` lines ride the scenario into cluster_from_scenario: node b
  // crashes mid-plan and is never restarted, so its placement ends lost —
  // the same outcome CrashLosesPlacementsUnlessRecovered pins by hand.
  const Scenario s = parse_scenario_string(
      "supply cpu fa 1 0 200\n"
      "supply cpu fb 16 0 200\n"
      "node a fa\n"
      "node b fb\n"
      "link a b 1\n"
      "fault crash b 3\n");
  ASSERT_EQ(s.faults.size(), 1u);
  ClusterSim sim = cluster_from_scenario(s, CostModel(), ClusterConfig{});
  sim.submit(0, 1, chunk_job("victim", {8, 8}, 0, 60));
  const ClusterReport report = sim.run(80);
  ASSERT_EQ(report.decisions.size(), 1u);
  EXPECT_EQ(report.decisions[0].outcome, Placement::kLocal);
  EXPECT_TRUE(report.decisions[0].lost);
}

TEST(ClusterScenario, ThrowsWithoutNodes) {
  EXPECT_THROW(
      cluster_from_scenario(Scenario{}, CostModel(), ClusterConfig{}),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Report arithmetic

TEST(ClusterReport, RatesFromDecisions) {
  ClusterReport report;
  JobDecision local;
  local.outcome = Placement::kLocal;
  JobDecision remote;
  remote.outcome = Placement::kRemote;
  JobDecision rejected;
  rejected.outcome = Placement::kRejected;
  JobDecision lost = local;
  lost.lost = true;
  report.decisions = {local, remote, rejected, lost};
  EXPECT_EQ(report.accepted_total(), 3u);
  EXPECT_EQ(report.rejected(), 1u);
  EXPECT_EQ(report.lost(), 1u);
  EXPECT_DOUBLE_EQ(report.deadline_hit_rate(), 0.5);
  EXPECT_DOUBLE_EQ(report.forwarded_fraction(), 1.0 / 3.0);
}

TEST(ClusterReport, EmptyDefaults) {
  ClusterReport report;
  EXPECT_DOUBLE_EQ(report.deadline_hit_rate(), 1.0);
  EXPECT_DOUBLE_EQ(report.forwarded_fraction(), 0.0);
  EXPECT_TRUE(report.decision_log().empty());
}

}  // namespace
}  // namespace rota::cluster
