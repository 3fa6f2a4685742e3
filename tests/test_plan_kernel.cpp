// Cross-surface parity for the unified planning kernel (rota/plan/).
//
// Every admission surface — the sequential controller, the batched pipeline
// at any lane count, the RotaStrategy harness, and the cluster claim path —
// is a different composition of the same two kernel halves (speculate,
// commit). These tests pin the consequence: on one shared seeded workload,
// every surface produces the *bit-identical* decision sequence (accept set,
// plans, rejection reasons) and leaves the ledger in the same state. They
// also pin the optimistic-concurrency contract (stale speculations are
// refused and redone, never committed), the audit-replay rebuild path, the
// negotiation search against a per-window reference, and the snapshot
// restriction cache's containment rule.
#include "rota/plan/kernel.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "rota/admission/audit.hpp"
#include "rota/admission/baselines.hpp"
#include "rota/admission/negotiation.hpp"
#include "rota/cluster/node.hpp"
#include "rota/computation/requirement.hpp"
#include "rota/logic/planner.hpp"
#include "rota/logic/symbolic/feasibility.hpp"
#include "rota/runtime/batch_controller.hpp"
#include "rota/util/rng.hpp"
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

TEST(PlanKernelParity, RotaStrategyMatchesSequentialController) {
  CostModel phi;
  WorkloadGenerator gen(parity_config(), phi);
  const auto arrivals = gen.make_arrivals(kHorizon);
  ASSERT_GT(arrivals.size(), 40u);
  const ResourceSet supply = gen.base_supply(TimeInterval(0, kHorizon));

  RotaAdmissionController controller(phi, supply);
  RotaStrategy strategy(phi, supply);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const AdmissionDecision expected =
        controller.request(arrivals[i].computation, arrivals[i].at);
    const AdmissionDecision got =
        strategy.request(arrivals[i].computation, arrivals[i].at);
    expect_same_decision(expected, got, i);
  }
  EXPECT_EQ(strategy.controller().ledger().residual(),
            controller.ledger().residual());
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
  RotaAdmissionController controller(phi, supply);

  const ConcurrentRequirement rho_a =
      make_concurrent_requirement(phi, simple_job("a", site, 1, 60));
  const ConcurrentRequirement rho_b =
      make_concurrent_requirement(phi, simple_job("b", site, 1, 60));

  // Speculate `a` against a snapshot...
  const PlanResult spec_a = controller.kernel().speculate(
      rho_a, 0, FeasibilitySnapshot::capture(controller.ledger()));
  ASSERT_TRUE(spec_a.feasible());

  // ...then commit `b` through the sequential surface, moving the revision.
  const AdmissionDecision b = controller.request(rho_b, 0);
  ASSERT_TRUE(b.accepted);
  const std::uint64_t revision_after_b = controller.ledger().revision();
  const ResourceSet residual_after_b = controller.ledger().residual();

  // The stale speculation is refused and the ledger is untouched by the
  // attempt — nothing admitted, no clock or revision movement.
  EXPECT_EQ(controller.commit(spec_a), std::nullopt);
  EXPECT_EQ(controller.ledger().revision(), revision_after_b);
  EXPECT_EQ(controller.ledger().residual(), residual_after_b);
  EXPECT_EQ(controller.ledger().admitted_count(), 1u);

  // Redoing the speculation against a fresh snapshot commits cleanly.
  const PlanResult redo = controller.kernel().speculate(
      rho_a, 0, FeasibilitySnapshot::capture(controller.ledger()));
  ASSERT_TRUE(redo.feasible());
  const auto decision = controller.commit(redo);
  ASSERT_TRUE(decision.has_value());
  EXPECT_TRUE(decision->accepted);
  EXPECT_EQ(controller.ledger().admitted_count(), 2u);
}

TEST(PlanKernelStaleness, DetachedSnapshotsNeverCommit) {
  Location site("stale-l2");
  CostModel phi;
  ResourceSet supply;
  supply.add(10, TimeInterval(0, 100), LocatedType::cpu(site));
  RotaAdmissionController controller(phi, supply);
  const ConcurrentRequirement rho =
      make_concurrent_requirement(phi, simple_job("w", site, 1, 60));

  // over() / minus() snapshots are speculation-only: their revision stamp
  // can never match a live ledger, so the commit gate refuses them even when
  // the availability they planned against happens to be identical.
  const PlanResult what_if = controller.kernel().speculate(
      rho, 0, FeasibilitySnapshot::over(controller.ledger().residual()));
  ASSERT_TRUE(what_if.feasible());
  EXPECT_EQ(what_if.revision, FeasibilitySnapshot::kDetachedRevision);
  EXPECT_EQ(controller.commit(what_if), std::nullopt);
  EXPECT_EQ(controller.ledger().admitted_count(), 0u);
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
  RotaAdmissionController controller(phi, supply);
  AuditLog audit(64);

  const ConcurrentRequirement rho_a =
      make_concurrent_requirement(phi, simple_job("a", site, 2, 80));
  const ConcurrentRequirement rho_b =
      make_concurrent_requirement(phi, simple_job("b", site, 2, 80));

  const FeasibilitySnapshot snapshot =
      FeasibilitySnapshot::capture(controller.ledger());
  const PlanResult spec_a = controller.kernel().speculate(rho_a, 0, snapshot);
  const PlanResult spec_b = controller.kernel().speculate(rho_b, 0, snapshot);
  ASSERT_TRUE(spec_a.feasible());
  ASSERT_TRUE(spec_b.feasible());

  const auto decision_a = controller.commit(spec_a);
  ASSERT_TRUE(decision_a && decision_a->accepted);
  audit.record(0, rho_a, *decision_a);

  // `b` went stale the moment `a` landed; it is redone, never committed as-is.
  ASSERT_EQ(controller.commit(spec_b), std::nullopt);
  const PlanResult redo_b = controller.kernel().speculate(
      rho_b, 0, FeasibilitySnapshot::capture(controller.ledger()));
  const auto decision_b = controller.commit(redo_b);
  ASSERT_TRUE(decision_b.has_value());
  audit.record(0, rho_b, *decision_b);

  // Rebuild from the WAL through the same commit gate (PlanningKernel::replay).
  CommitmentLedger recovered(supply);
  const std::size_t replayed = audit.replay_into(recovered);
  std::size_t accepted = (decision_a->accepted ? 1u : 0u) +
                         (decision_b->accepted ? 1u : 0u);
  EXPECT_EQ(replayed, accepted);
  EXPECT_EQ(recovered.residual(), controller.ledger().residual());
  EXPECT_EQ(recovered.admitted_count(), controller.ledger().admitted_count());
}

// ---------------------------------------------------------------------------
// Negotiation: the cached-restriction search must return exactly what the
// historical per-window-restriction search returned.

/// Reference implementation of the deadline search: every probe restricts
/// the residual to its own candidate window (what each surface did before
/// the snapshot's restriction cache) and calls the planner directly —
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
// Snapshot restriction cache.

TEST(FeasibilitySnapshotCache, ContainedWindowsShareOneRestriction) {
  Location site("cache-l1");
  CostModel phi;
  ResourceSet supply;
  supply.add(4, TimeInterval(0, 200), LocatedType::cpu(site));
  RotaAdmissionController controller(phi, supply);

  const FeasibilitySnapshot snapshot =
      FeasibilitySnapshot::capture(controller.ledger());
  const ResourceSet& wide = snapshot.restricted(TimeInterval(0, 100));
  // A contained window is served from the cached wide view (the planner
  // never reads outside the requirement window, so containment is enough).
  const ResourceSet& narrow = snapshot.restricted(TimeInterval(20, 60));
  EXPECT_EQ(&wide, &narrow);
  EXPECT_EQ(&wide, &snapshot.restricted(TimeInterval(0, 100)));
  // A window outside every cached one gets its own restriction...
  const ResourceSet& disjoint = snapshot.restricted(TimeInterval(120, 180));
  EXPECT_NE(&wide, &disjoint);
  // ...and restriction semantics are unchanged by the cache.
  EXPECT_EQ(disjoint, controller.ledger().residual().restricted(TimeInterval(120, 180)));
}

TEST(SnapshotCache, RandomizedWindowMixMatchesUncachedRestrictions) {
  // Seeded property test: whatever mix of nested, overlapping, repeated and
  // disjoint windows the cache is probed with — and in whatever order — the
  // served view re-restricted to the probe window must equal a fresh
  // uncached restriction of the residual. Containment-based cache hits may
  // legitimately hand back a *wider* view, so the probe, not the view, is
  // the unit of comparison.
  CostModel phi;
  WorkloadGenerator gen(parity_config(), phi);
  const ResourceSet supply = gen.base_supply(TimeInterval(0, kHorizon));
  RotaAdmissionController controller(phi, supply);
  for (const BatchRequest& r : parity_requests(gen)) {
    controller.request(r.rho, r.at);
  }
  const ResourceSet& residual = controller.ledger().residual();

  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const FeasibilitySnapshot snapshot =
        FeasibilitySnapshot::capture(controller.ledger());
    util::Rng rng(seed * 977 + 11);
    std::vector<TimeInterval> probes;
    for (int i = 0; i < 8; ++i) {
      const Tick start = rng.uniform(0, kHorizon);
      const Tick len = rng.uniform(1, 80);
      const TimeInterval base(start, start + len);
      probes.push_back(base);
      // A nested subwindow and an overlapping shift of an earlier probe.
      probes.emplace_back(base.start() + len / 4, base.end() - len / 3);
      const TimeInterval& prior = probes[rng.index(probes.size())];
      probes.emplace_back(prior.start() + rng.uniform(0, 10),
                          prior.end() + rng.uniform(1, 10));
    }
    // Repeat a few verbatim so the memoized path is exercised too.
    probes.push_back(probes[rng.index(probes.size())]);
    probes.push_back(probes[rng.index(probes.size())]);

    for (const TimeInterval& probe : probes) {
      if (probe.empty()) continue;
      const ResourceSet& served = snapshot.restricted(probe);
      EXPECT_EQ(served.restricted(probe), residual.restricted(probe))
          << "seed " << seed << ", probe " << probe.to_string();
    }
  }
}

// ---- budget-aware speculation (the admission service's entry point) -------

TEST(PlanKernelBudget, DefaultOptionsMatchPlainSpeculate) {
  CostModel phi;
  WorkloadGenerator gen(parity_config(), phi);
  CommitmentLedger ledger(gen.base_supply(TimeInterval(0, kHorizon)));
  const PlanningKernel kernel;
  for (const Arrival& a : gen.make_arrivals(kHorizon)) {
    const ConcurrentRequirement rho = make_concurrent_requirement(phi, a.computation);
    const FeasibilitySnapshot snapshot = FeasibilitySnapshot::capture(ledger);
    const PlanResult plain = kernel.speculate(rho, a.at, snapshot);
    const PlanResult optioned = kernel.speculate(rho, a.at, snapshot, SpeculateOptions{});
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
  SpeculateOptions options;
  options.cancel = &token;
  const PlanResult result = kernel.speculate(rho, 0, snapshot, options);
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
  EXPECT_EQ(token.remaining_ns(), 0u);
}

TEST(PlanKernelBudget, ViewOverridePlansAgainstTheHullButKeepsStamps) {
  // A dominated hull (half the true supply) must shape the plan while the
  // result keeps the live snapshot's revision stamps — commit-able exactly
  // like an exact speculation. This is the contract kDigest stands on.
  Location site("hull-l1");
  CostModel phi;
  ResourceSet supply;
  supply.add(8, TimeInterval(0, 100), LocatedType::cpu(site));
  CommitmentLedger ledger(supply);
  const PlanningKernel kernel;

  Phase p;
  p.demand.add(LocatedType::cpu(site), 8);
  p.first_action = 0;
  p.action_count = 1;
  const ConcurrentRequirement rho(
      "hulled", {ComplexRequirement("a", {p}, TimeInterval(0, 100), 0)},
      TimeInterval(0, 100));

  const FeasibilitySnapshot snapshot =
      FeasibilitySnapshot::capture(ledger, TimeInterval(0, 100));
  ResourceSet hull;
  hull.add(4, TimeInterval(0, 100), LocatedType::cpu(site));  // dominated
  SpeculateOptions options;
  options.view_override = &hull;
  const PlanResult result = kernel.speculate(rho, 0, snapshot, options);
  ASSERT_TRUE(result.feasible());
  EXPECT_EQ(result.revision, ledger.revision());

  AdmissionDecision decision;
  ASSERT_EQ(kernel.commit(result, ledger, decision), CommitStatus::kCommitted);
  EXPECT_TRUE(decision.accepted) << decision.reason;
  // Against 4/tick the 8-unit phase needs at least 2 ticks — the hull, not
  // the 8/tick truth, shaped the plan.
  EXPECT_EQ(ledger.admitted_count(), 1u);
}

}  // namespace
}  // namespace rota
