// Cross-surface parity for the unified planning kernel (rota/plan/).
//
// Every admission surface — the sequential controller, the batched pipeline
// at any lane count, and the cluster claim path —
// is a different composition of the same two kernel halves (speculate,
// commit). These tests pin the consequence: on one shared seeded workload,
// every surface produces the *bit-identical* decision sequence (accept set,
// plans, rejection reasons) and leaves the ledger in the same state. They
// also pin the optimistic-concurrency contract (stale speculations are
// refused and redone, never committed), the audit-replay rebuild path, the
// negotiation search against a per-window reference, and a snapshot that
// outlives the ledger's next write.
#include "rota/plan/kernel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "rota/admission/audit.hpp"
#include "rota/admission/controller.hpp"
#include "rota/admission/negotiation.hpp"
#include "rota/cluster/node.hpp"
#include "rota/computation/requirement.hpp"
#include "rota/logic/planner.hpp"
#include "rota/logic/symbolic/feasibility.hpp"
#include "rota/runtime/batch_controller.hpp"
#include "rota/workload/generator.hpp"

namespace rota {
namespace {

constexpr Tick kHorizon = 500;

WorkloadConfig parity_config() {
  WorkloadConfig config;
  config.seed = 23;
  config.mean_interarrival = 3.0;  // heavy enough that plenty get rejected
  config.laxity = 1.3;
  return config;
}

/// The shared seeded workload every parity test admits.
std::vector<BatchRequest> parity_requests(WorkloadGenerator& gen) {
  std::vector<BatchRequest> requests;
  for (const Arrival& a : gen.make_arrivals(kHorizon)) {
    requests.push_back(
        BatchRequest{make_concurrent_requirement(gen.phi(), a.computation), a.at});
  }
  return requests;
}

void expect_same_decision(const AdmissionDecision& a, const AdmissionDecision& b,
                          std::size_t index) {
  EXPECT_EQ(a.accepted, b.accepted) << "request " << index;
  EXPECT_EQ(a.reason, b.reason) << "request " << index;
  EXPECT_EQ(a.plan == b.plan, true) << "plans diverge on request " << index;
}

TEST(PlanKernelParity, BatchMatchesSequentialAtEveryLaneCount) {
  CostModel phi;
  WorkloadGenerator gen(parity_config(), phi);
  const auto requests = parity_requests(gen);
  ASSERT_GT(requests.size(), 40u);
  const ResourceSet supply = gen.base_supply(TimeInterval(0, kHorizon));

  // Reference: the sequential controller, one request at a time.
  RotaAdmissionController sequential(phi, supply);
  std::vector<AdmissionDecision> expected;
  for (const BatchRequest& r : requests) {
    expected.push_back(sequential.request(r.rho, r.at));
  }
  std::size_t accepted = 0;
  for (const auto& d : expected) accepted += d.accepted ? 1 : 0;
  ASSERT_GT(accepted, 0u);
  ASSERT_LT(accepted, expected.size()) << "workload must exercise rejection";

  for (const std::size_t lanes : {1u, 2u, 3u, 4u, 8u}) {
    BatchAdmissionController batch(phi, supply, PlanningPolicy::kAsap, lanes);
    const auto decisions = batch.admit_batch(requests);
    ASSERT_EQ(decisions.size(), expected.size()) << "lanes=" << lanes;
    for (std::size_t i = 0; i < decisions.size(); ++i) {
      SCOPED_TRACE("lanes=" + std::to_string(lanes));
      expect_same_decision(expected[i], decisions[i], i);
    }
    // Identical decisions must leave identical ledgers.
    EXPECT_EQ(batch.ledger().residual(), sequential.ledger().residual())
        << "lanes=" << lanes;
    EXPECT_EQ(batch.ledger().admitted_count(), sequential.ledger().admitted_count())
        << "lanes=" << lanes;
  }
}

TEST(PlanKernelParity, ClusterClaimMatchesLocalAdmit) {
  CostModel phi;
  WorkloadConfig config = parity_config();
  config.mean_interarrival = 4.0;
  WorkloadGenerator gen(config, phi);
  const auto arrivals = gen.make_cluster_arrivals(kHorizon, /*num_nodes=*/1,
                                                  /*hot_fraction=*/1.0);
  ASSERT_GT(arrivals.size(), 20u);
  const ResourceSet supply = gen.node_supply(0, TimeInterval(0, kHorizon));

  cluster::ClusterEvents events;
  net::QueueTransport transport(/*local=*/0);
  cluster::ClusterNode node(/*id=*/0, gen.locations()[0], phi, supply,
                            cluster::NodeConfig{}, &events, &transport);
  // Reference: a plain local controller with the same supply, admitting the
  // node-localized requirement at the claim's delivery tick.
  RotaAdmissionController local(phi, supply);

  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    cluster::Message claim;
    claim.kind = cluster::MsgKind::kClaim;
    claim.from = 1;
    claim.to = 0;
    claim.job = i;
    claim.work = arrivals[i].work;
    node.handle(claim, arrivals[i].at);
    const auto out = transport.drain_sent();
    ASSERT_EQ(out.size(), 1u) << "claim " << i;

    const AdmissionDecision expected =
        local.request(node.localize(arrivals[i].work), arrivals[i].at);
    if (expected.accepted) {
      EXPECT_EQ(out[0].kind, cluster::MsgKind::kClaimAck) << "claim " << i;
      EXPECT_EQ(out[0].finish, expected.plan->finish) << "claim " << i;
    } else {
      EXPECT_EQ(out[0].kind, cluster::MsgKind::kClaimReject) << "claim " << i;
      EXPECT_EQ(out[0].note, expected.reason) << "claim " << i;
    }
  }
  EXPECT_EQ(node.ledger().residual(), local.ledger().residual());
}

// ---------------------------------------------------------------------------
// Optimistic-concurrency contract: stale speculations are redone, never
// committed — and a rebuild from the audit log converges to the same ledger.

/// A two-actor computation over `site` with plenty of laxity.
DistributedComputation simple_job(const std::string& name, Location site,
                                  Tick start, Tick deadline) {
  ActorComputationBuilder builder(name + "-actor", site);
  builder.evaluate(3);
  builder.ready();
  return DistributedComputation(name, {std::move(builder).build()}, start,
                                deadline);
}

TEST(PlanKernelStaleness, CommitThroughAnotherSurfaceInvalidatesSpeculation) {
  Location site("stale-l1");
  CostModel phi;
  ResourceSet supply;
  supply.add(10, TimeInterval(0, 100), LocatedType::cpu(site));
  CommitmentLedger ledger(supply, 0);
  const PlanningKernel kernel;

  const ConcurrentRequirement rho_a =
      make_concurrent_requirement(phi, simple_job("a", site, 1, 60));
  const ConcurrentRequirement rho_b =
      make_concurrent_requirement(phi, simple_job("b", site, 1, 60));

  // Speculate `a` against a snapshot...
  const PlanResult spec_a =
      kernel.speculate(rho_a, 0, FeasibilitySnapshot::capture(ledger));
  ASSERT_TRUE(spec_a.feasible());

  // ...then commit `b` through the sequential surface, moving the revision.
  const AdmissionDecision b = kernel.decide(ledger, rho_b, 0);
  ASSERT_TRUE(b.accepted);
  const std::uint64_t revision_after_b = ledger.revision();
  const ResourceSet residual_after_b = ledger.residual();

  // The stale speculation is refused and the ledger is untouched by the
  // attempt — nothing admitted, no clock or revision movement.
  AdmissionDecision out;
  EXPECT_EQ(kernel.commit(spec_a, ledger, out), CommitStatus::kStale);
  EXPECT_EQ(ledger.revision(), revision_after_b);
  EXPECT_EQ(ledger.residual(), residual_after_b);
  EXPECT_EQ(ledger.admitted_count(), 1u);

  // Redoing the speculation against a fresh snapshot commits cleanly.
  const PlanResult redo =
      kernel.speculate(rho_a, 0, FeasibilitySnapshot::capture(ledger));
  ASSERT_TRUE(redo.feasible());
  ASSERT_EQ(kernel.commit(redo, ledger, out), CommitStatus::kCommitted);
  EXPECT_TRUE(out.accepted);
  EXPECT_EQ(ledger.admitted_count(), 2u);
}

TEST(PlanKernelStaleness, DetachedSnapshotsNeverCommit) {
  Location site("stale-l2");
  CostModel phi;
  ResourceSet supply;
  supply.add(10, TimeInterval(0, 100), LocatedType::cpu(site));
  CommitmentLedger ledger(supply, 0);
  const PlanningKernel kernel;
  const ConcurrentRequirement rho =
      make_concurrent_requirement(phi, simple_job("w", site, 1, 60));

  // over() / minus() snapshots are speculation-only: their revision stamp
  // can never match a live ledger, so the commit gate refuses them even when
  // the availability they planned against happens to be identical.
  const PlanResult what_if =
      kernel.speculate(rho, 0, FeasibilitySnapshot::over(ledger.residual()));
  ASSERT_TRUE(what_if.feasible());
  EXPECT_EQ(what_if.revision, FeasibilitySnapshot::kDetachedRevision);
  AdmissionDecision out;
  EXPECT_EQ(kernel.commit(what_if, ledger, out), CommitStatus::kStale);
  EXPECT_EQ(ledger.admitted_count(), 0u);
}

TEST(PlanKernelStaleness, WindowBehindAMovedLapsePointIsStale) {
  Location site("stale-l4");
  CostModel phi;
  ResourceSet supply;
  supply.add(10, TimeInterval(0, 100), LocatedType::cpu(site));
  CommitmentLedger ledger(supply, 0);
  const PlanningKernel kernel;
  const ConcurrentRequirement behind =
      make_concurrent_requirement(phi, simple_job("behind", site, 0, 60));
  const ConcurrentRequirement ahead =
      make_concurrent_requirement(phi, simple_job("ahead", site, 8, 60));

  // Both speculate against one snapshot taken before the ledger forgets.
  const FeasibilitySnapshot before = FeasibilitySnapshot::capture(ledger);
  const PlanResult spec_behind = kernel.speculate(behind, 2, before);
  const PlanResult spec_ahead = kernel.speculate(ahead, 8, before);
  ASSERT_TRUE(spec_behind.feasible());
  ASSERT_TRUE(spec_ahead.feasible());
  EXPECT_EQ(spec_behind.lapsed_before, CommitmentLedger::kNothingLapsed);

  // The clock reaches 5 and [0, 5) lapses. No revision moves, so only the
  // lapse point can tell that [2, 60) was planned on supply now gone.
  ledger.advance_to(5);
  const std::uint64_t revision = ledger.revision();
  ledger.expire();
  ASSERT_EQ(ledger.revision(), revision);
  AdmissionDecision out;
  EXPECT_EQ(kernel.commit(spec_behind, ledger, out), CommitStatus::kStale);
  EXPECT_EQ(ledger.admitted_count(), 0u);
  EXPECT_EQ(ledger.now(), 5);

  // A window at or after the lapse point read nothing that lapsed.
  ASSERT_EQ(kernel.commit(spec_ahead, ledger, out), CommitStatus::kCommitted);
  EXPECT_TRUE(out.accepted);

  // Re-speculated against the trimmed residual, the late arrival commits:
  // its snapshot already knew the lapse point.
  const PlanResult redo =
      kernel.speculate(behind, 2, FeasibilitySnapshot::capture(ledger));
  EXPECT_EQ(redo.lapsed_before, 5);
  ASSERT_EQ(kernel.commit(redo, ledger, out), CommitStatus::kCommitted);
  EXPECT_TRUE(out.accepted);
  for (const ActorPlan& a : out.plan->actors) {
    for (const auto& [type, usage] : a.usage) {
      ASSERT_FALSE(usage.is_zero());
      EXPECT_GE(usage.segments().front().interval.start(), 5);
    }
  }
}

TEST(PlanKernelStaleness, StalenessRedoAndAuditReplayConverge) {
  // The mid-batch shape, spelled out by hand: two speculations against one
  // snapshot, commit the first (revision moves), the second must be redone.
  // Then a crash-recovery rebuild from the audit log must land on the same
  // ledger the staleness-aware live path produced.
  Location site("stale-l3");
  CostModel phi;
  ResourceSet supply;
  supply.add(6, TimeInterval(0, 120), LocatedType::cpu(site));
  CommitmentLedger ledger(supply, 0);
  const PlanningKernel kernel;
  AuditLog audit(64);

  const ConcurrentRequirement rho_a =
      make_concurrent_requirement(phi, simple_job("a", site, 2, 80));
  const ConcurrentRequirement rho_b =
      make_concurrent_requirement(phi, simple_job("b", site, 2, 80));

  const FeasibilitySnapshot snapshot = FeasibilitySnapshot::capture(ledger);
  const PlanResult spec_a = kernel.speculate(rho_a, 0, snapshot);
  const PlanResult spec_b = kernel.speculate(rho_b, 0, snapshot);
  ASSERT_TRUE(spec_a.feasible());
  ASSERT_TRUE(spec_b.feasible());

  AdmissionDecision decision_a;
  ASSERT_EQ(kernel.commit(spec_a, ledger, decision_a), CommitStatus::kCommitted);
  ASSERT_TRUE(decision_a.accepted);
  audit.record(0, rho_a, decision_a);

  // `b` went stale the moment `a` landed; it is redone, never committed as-is.
  AdmissionDecision decision_b;
  ASSERT_EQ(kernel.commit(spec_b, ledger, decision_b), CommitStatus::kStale);
  const PlanResult redo_b =
      kernel.speculate(rho_b, 0, FeasibilitySnapshot::capture(ledger));
  ASSERT_EQ(kernel.commit(redo_b, ledger, decision_b), CommitStatus::kCommitted);
  audit.record(0, rho_b, decision_b);

  // Rebuild from the WAL through the same commit gate (PlanningKernel::replay).
  CommitmentLedger recovered(supply);
  const std::size_t replayed = audit.replay_into(recovered);
  std::size_t accepted = (decision_a.accepted ? 1u : 0u) +
                         (decision_b.accepted ? 1u : 0u);
  EXPECT_EQ(replayed, accepted);
  EXPECT_EQ(recovered.residual(), ledger.residual());
  EXPECT_EQ(recovered.admitted_count(), ledger.admitted_count());
}

// ---------------------------------------------------------------------------
// Negotiation: the one-capture search must return exactly what a
// per-window-restriction search returns.

/// Reference implementation of the deadline search: every probe restricts
/// the residual to its own candidate window and calls the planner directly —
/// including the kernel's symbolic rescue of order-sensitive greedy
/// rejections, so the reference probes the same feasibility predicate the
/// kernel does (same budget, see kKernelProbeOptions in plan/kernel.cpp).
std::optional<Tick> reference_earliest_deadline(const ResourceSet& residual,
                                                const ConcurrentRequirement& rho,
                                                Tick latest,
                                                PlanningPolicy policy) {
  const Tick start = rho.window().start();
  auto feasible_by = [&](Tick d) {
    const TimeInterval window(start, d);
    const ResourceSet view = residual.restricted(window);
    const ConcurrentRequirement clipped = clip_requirement(rho, window);
    if (plan_concurrent(view, clipped, policy).has_value()) return true;
    if (policy != PlanningPolicy::kAsap || clipped.actors().size() <= 1) {
      return false;
    }
    return symbolic_concurrent_plan(view, clipped, start,
                                    FeasibilityOptions{20'000, 256})
        .has_value();
  };
  if (!feasible_by(latest)) return std::nullopt;
  Tick lo = start + 1, hi = latest;
  while (lo < hi) {
    const Tick mid = lo + (hi - lo) / 2;
    if (feasible_by(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return hi;
}

TEST(NegotiationRegression, CounterOffersMatchPerWindowReferenceSearch) {
  CostModel phi;
  WorkloadConfig config = parity_config();
  config.mean_interarrival = 2.0;  // overload: rejections to counter-offer on
  WorkloadGenerator gen(config, phi);
  const auto requests = parity_requests(gen);
  const ResourceSet supply = gen.base_supply(TimeInterval(0, kHorizon));

  RotaAdmissionController controller(phi, supply);
  std::size_t rejected = 0, offered = 0;
  for (const BatchRequest& r : requests) {
    const Tick max_deadline = r.rho.window().end() + 40;
    // Reference answer, computed from the pre-request residual exactly the
    // way the pre-kernel code did: one restriction per candidate window.
    const ResourceSet residual = controller.ledger().residual();
    const Tick start = std::max(r.rho.window().start(), r.at);
    std::optional<Tick> expected;
    if (start < max_deadline) {
      expected = reference_earliest_deadline(
          residual, clip_requirement(r.rho, TimeInterval(start, max_deadline)),
          max_deadline, controller.policy());
    }

    const CounterOffer offer =
        request_with_counter_offer(controller, r.rho, r.at, max_deadline);
    if (offer.decision.accepted) continue;
    ++rejected;
    if (expected && *expected > r.rho.window().end()) {
      ASSERT_TRUE(offer.suggested_deadline.has_value()) << r.rho.name();
      EXPECT_EQ(*offer.suggested_deadline, *expected) << r.rho.name();
      ++offered;
    } else {
      EXPECT_EQ(offer.suggested_deadline, std::nullopt) << r.rho.name();
    }
  }
  ASSERT_GT(rejected, 0u) << "workload must exercise counter-offers";
  ASSERT_GT(offered, 0u) << "at least one rejection must yield an offer";
}

// ---------------------------------------------------------------------------
// A snapshot outlives the ledger's next write.

TEST(PlanKernelOwnedSnapshot, SpeculationAgainstACaptureSurvivesConcurrentCommits) {
  // One thread speculates against a captured snapshot while another commits
  // through the same ledger under a mutex. The capture owns its view, so the
  // writes cannot reach it: every plan equals the one taken from a copy of
  // the residual made before the first write, and each result's commit
  // comes back stale or shard-salvaged exactly as the shards the writes
  // touched predict.
  const Location busy("owned-busy"), quiet("owned-quiet");
  ASSERT_NE(shard_of(LocatedType::cpu(busy)), shard_of(LocatedType::cpu(quiet)));
  CostModel phi;
  ResourceSet supply;
  supply.add(6, TimeInterval(0, 400), LocatedType::cpu(busy));
  supply.add(6, TimeInterval(0, 400), LocatedType::cpu(quiet));
  CommitmentLedger ledger(supply);
  std::mutex ledger_mutex;
  const PlanningKernel kernel;

  std::vector<ConcurrentRequirement> probes;
  for (int i = 0; i < 8; ++i) {
    probes.push_back(make_concurrent_requirement(
        phi, simple_job("probe" + std::to_string(i), i % 2 == 0 ? busy : quiet,
                        1 + i, 200 + 10 * i)));
  }
  std::vector<ConcurrentRequirement> writes;
  for (int i = 0; i < 40; ++i) {
    writes.push_back(make_concurrent_requirement(
        phi, simple_job("write" + std::to_string(i), busy, 1, 400)));
  }

  const ResourceSet pre_write = ledger.residual();
  const FeasibilitySnapshot snapshot = FeasibilitySnapshot::capture(ledger);
  std::vector<PlanResult> expected;
  for (const ConcurrentRequirement& rho : probes) {
    expected.push_back(kernel.speculate(rho, 0, FeasibilitySnapshot::over(pre_write)));
  }

  std::atomic<bool> go{false};
  std::size_t writes_accepted = 0;
  std::thread writer([&] {
    while (!go.load()) {
    }
    for (const ConcurrentRequirement& rho : writes) {
      std::lock_guard<std::mutex> lock(ledger_mutex);
      const PlanResult result = kernel.speculate(
          rho, 0,
          FeasibilitySnapshot::capture(ledger, effective_window(rho, 0),
                                       touched_shard_mask(rho)));
      AdmissionDecision out;
      if (kernel.commit(result, ledger, out) == CommitStatus::kCommitted &&
          out.accepted) {
        ++writes_accepted;
      }
    }
  });
  std::vector<PlanResult> results(probes.size());
  std::size_t mismatches = 0;
  std::thread speculator([&] {
    go.store(true);
    for (int round = 0; round < 20; ++round) {
      for (std::size_t i = 0; i < probes.size(); ++i) {
        results[i] = kernel.speculate(probes[i], 0, snapshot);
        if (results[i].status != expected[i].status ||
            results[i].plan != expected[i].plan) {
          ++mismatches;
        }
      }
    }
  });
  speculator.join();
  writer.join();

  EXPECT_EQ(mismatches, 0u);
  ASSERT_GT(writes_accepted, 0u);
  ASSERT_NE(ledger.revision(), snapshot.revision());
  // Replay the probes' commits against the model: a result commits (is
  // salvaged) iff no accepted write touched its shard footprint since the
  // capture, and each salvaged accept dirties its own footprint.
  ShardMask dirty = touched_shard_mask(writes.front());
  std::size_t salvaged = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].feasible()) << probes[i].name();
    const bool predicted = (results[i].touched_mask & dirty) == 0;
    AdmissionDecision out;
    const CommitStatus status = kernel.commit(results[i], ledger, out);
    EXPECT_EQ(status == CommitStatus::kCommitted, predicted) << probes[i].name();
    if (status == CommitStatus::kCommitted) {
      ++salvaged;
      EXPECT_TRUE(out.accepted) << probes[i].name();
      dirty |= results[i].touched_mask;
    }
  }
  EXPECT_EQ(salvaged, 1u) << "exactly the first quiet-site probe is salvaged";
}

// ---- budget-aware speculation (the admission service's entry point) -------

TEST(PlanKernelBudget, DefaultOptionsMatchPlainSpeculate) {
  CostModel phi;
  WorkloadGenerator gen(parity_config(), phi);
  CommitmentLedger ledger(gen.base_supply(TimeInterval(0, kHorizon)));
  const PlanningKernel kernel;
  const CancellationToken never;  // an unexpired token changes nothing
  for (const Arrival& a : gen.make_arrivals(kHorizon)) {
    const ConcurrentRequirement rho = make_concurrent_requirement(phi, a.computation);
    const FeasibilitySnapshot snapshot = FeasibilitySnapshot::capture(ledger);
    const PlanResult plain = kernel.speculate(rho, a.at, snapshot);
    const PlanResult optioned = kernel.speculate(rho, a.at, snapshot, &never);
    EXPECT_EQ(plain.status, optioned.status);
    EXPECT_EQ(plain.plan == optioned.plan, true);
    AdmissionDecision ignored;
    kernel.commit(plain, ledger, ignored);
  }
}

TEST(PlanKernelBudget, ExpiredTokenCancelsInsteadOfDeciding) {
  CostModel phi;
  WorkloadGenerator gen(parity_config(), phi);
  CommitmentLedger ledger(gen.base_supply(TimeInterval(0, kHorizon)));
  const PlanningKernel kernel;
  const ConcurrentRequirement rho =
      make_concurrent_requirement(phi, gen.make_computation(0));
  const FeasibilitySnapshot snapshot = FeasibilitySnapshot::capture(ledger);

  CancellationToken token = CancellationToken::with_budget_ns(1);  // expires now
  while (!token.expired()) {
  }
  const PlanResult result = kernel.speculate(rho, 0, snapshot, &token);
  EXPECT_EQ(result.status, PlanStatus::kCancelled);
  EXPECT_FALSE(result.feasible());
  EXPECT_STREQ(result.reject_reason(), "planning budget exhausted");

  // A cancelled speculation is not a decision: committing it must refuse
  // (kStale) and leave the ledger untouched — the exact kernel might have
  // accepted, so issuing a rejection here would break parity.
  const std::uint64_t revision = ledger.revision();
  AdmissionDecision decision;
  EXPECT_EQ(kernel.commit(result, ledger, decision), CommitStatus::kStale);
  EXPECT_EQ(ledger.revision(), revision);
  EXPECT_EQ(ledger.admitted_count(), 0u);
}

TEST(PlanKernelBudget, ExplicitCancelTripsTheToken) {
  CancellationToken token = CancellationToken::with_budget_ns(0);  // 0 = never
  EXPECT_FALSE(token.expired());
  token.cancel();
  EXPECT_TRUE(token.expired());
}

}  // namespace
}  // namespace rota
