// The batched admission pipeline must be indistinguishable, decision for
// decision, from the sequential FCFS controller: same accept set, same
// plans, same rejection reasons, same final ledger — for any workload, any
// planning policy, and any concurrency.
#include "rota/runtime/batch_controller.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "rota/computation/actor_computation.hpp"
#include "rota/computation/requirement.hpp"
#include "rota/util/rng.hpp"
#include "rota/workload/generator.hpp"

namespace rota {
namespace {

std::vector<BatchRequest> make_requests(WorkloadConfig config, Tick horizon,
                                        const CostModel& phi) {
  WorkloadGenerator gen(config, phi);
  std::vector<BatchRequest> out;
  for (const Arrival& a : gen.make_arrivals(horizon)) {
    out.push_back(BatchRequest{make_concurrent_requirement(phi, a.computation), a.at});
  }
  return out;
}

ResourceSet supply_for(WorkloadConfig config, Tick horizon, const CostModel& phi) {
  return WorkloadGenerator(config, phi).base_supply(TimeInterval(0, horizon));
}

std::vector<AdmissionDecision> run_sequential(const std::vector<BatchRequest>& requests,
                                              const CostModel& phi,
                                              const ResourceSet& supply,
                                              PlanningPolicy policy) {
  RotaAdmissionController ctl(phi, supply, policy);
  std::vector<AdmissionDecision> out;
  out.reserve(requests.size());
  for (const auto& r : requests) out.push_back(ctl.request(r.rho, r.at));
  return out;
}

void expect_identical(const std::vector<AdmissionDecision>& sequential,
                      const std::vector<AdmissionDecision>& batched,
                      const std::string& context) {
  ASSERT_EQ(sequential.size(), batched.size()) << context;
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    const std::string where = context + " request #" + std::to_string(i);
    EXPECT_EQ(sequential[i].accepted, batched[i].accepted) << where;
    EXPECT_EQ(sequential[i].reason, batched[i].reason) << where;
    ASSERT_EQ(sequential[i].plan.has_value(), batched[i].plan.has_value()) << where;
    if (sequential[i].plan) {
      EXPECT_EQ(*sequential[i].plan, *batched[i].plan) << where;
    }
  }
}

TEST(BatchControllerTest, MatchesSequentialAcrossSeedsPoliciesAndConcurrency) {
  const Tick horizon = 400;
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    WorkloadConfig config;
    config.seed = seed;
    config.mean_interarrival = 6.0;  // enough pressure for accepts and rejects
    config.laxity = 1.6;
    CostModel phi;
    const auto requests = make_requests(config, horizon, phi);
    ASSERT_GT(requests.size(), 20u);
    const ResourceSet supply = supply_for(config, horizon, phi);

    for (PlanningPolicy policy :
         {PlanningPolicy::kAsap, PlanningPolicy::kAlap, PlanningPolicy::kUniform}) {
      const auto expected = run_sequential(requests, phi, supply, policy);
      for (std::size_t lanes : {1u, 2u, 8u}) {
        BatchAdmissionController batch(phi, supply, policy, lanes);
        const auto actual = batch.admit_batch(requests);
        expect_identical(expected, actual,
                         "seed=" + std::to_string(seed) + " policy=" +
                             policy_name(policy) + " lanes=" + std::to_string(lanes));
      }
    }
  }
}

TEST(BatchControllerTest, DecisionMixIsNontrivial) {
  // Guard against the equivalence test silently degenerating: the workload
  // it uses must actually produce both accepts and rejects.
  WorkloadConfig config;
  config.seed = 7;
  config.mean_interarrival = 6.0;
  config.laxity = 1.6;
  CostModel phi;
  const auto requests = make_requests(config, 400, phi);
  BatchAdmissionController batch(phi, supply_for(config, 400, phi),
                                 PlanningPolicy::kAsap, 4);
  const auto decisions = batch.admit_batch(requests);
  std::size_t accepts = 0;
  for (const auto& d : decisions) accepts += d.accepted ? 1 : 0;
  EXPECT_GT(accepts, 0u);
  EXPECT_LT(accepts, decisions.size());
}

TEST(BatchControllerTest, SaturatedWorkloadStaysEquivalent) {
  WorkloadConfig config;
  config.seed = 3;
  config.mean_interarrival = 1.5;  // heavy traffic: mostly rejections
  config.laxity = 1.2;
  config.cpu_rate = 5;
  config.network_rate = 5;
  CostModel phi;
  const Tick horizon = 300;
  const auto requests = make_requests(config, horizon, phi);
  const ResourceSet supply = supply_for(config, horizon, phi);

  const auto expected = run_sequential(requests, phi, supply, PlanningPolicy::kAsap);
  BatchAdmissionController batch(phi, supply, PlanningPolicy::kAsap, 8);
  expect_identical(expected, batch.admit_batch(requests), "saturated");
}

TEST(BatchControllerTest, LedgerEndsInSequentialState) {
  WorkloadConfig config;
  config.seed = 11;
  config.mean_interarrival = 5.0;
  CostModel phi;
  const Tick horizon = 300;
  const auto requests = make_requests(config, horizon, phi);
  const ResourceSet supply = supply_for(config, horizon, phi);

  RotaAdmissionController sequential(phi, supply);
  for (const auto& r : requests) sequential.request(r.rho, r.at);

  BatchAdmissionController batch(phi, supply, PlanningPolicy::kAsap, 8);
  batch.admit_batch(requests);

  EXPECT_EQ(sequential.ledger().residual(), batch.ledger().residual());
  EXPECT_EQ(sequential.ledger().admitted_count(), batch.ledger().admitted_count());
  EXPECT_EQ(sequential.ledger().now(), batch.ledger().now());
  for (std::size_t i = 0; i < sequential.ledger().admitted().size(); ++i) {
    EXPECT_EQ(sequential.ledger().admitted()[i].name, batch.ledger().admitted()[i].name);
  }
}

TEST(BatchControllerTest, ExpiredDeadlinesInsideBatch) {
  Location l("bc-l1");
  CostModel phi;
  ResourceSet supply;
  supply.add(4, TimeInterval(0, 40), LocatedType::cpu(l));

  auto job = [&](const std::string& name, Tick s, Tick d) {
    auto gamma = ActorComputationBuilder(name + ".a", l).evaluate(2).build();
    return make_concurrent_requirement(phi, DistributedComputation(name, {gamma}, s, d));
  };

  // The second request arrives after its own deadline. The fourth arrives
  // "at" tick 0 even though the batch clock has advanced past it — its window
  // is clipped by its own arrival tick, but supply behind the clock has
  // lapsed, exactly as in the sequential controller.
  std::vector<BatchRequest> requests = {
      {job("ok", 0, 10), 0},
      {job("late", 0, 4), 6},
      {job("mid", 10, 30), 12},
      {job("early-stamp", 0, 12), 0},
  };
  const auto expected = run_sequential(requests, phi, supply, PlanningPolicy::kAsap);
  ASSERT_FALSE(expected[1].accepted);
  EXPECT_NE(expected[1].reason.find("deadline"), std::string::npos);

  BatchAdmissionController batch(phi, supply, PlanningPolicy::kAsap, 4);
  expect_identical(expected, batch.admit_batch(requests), "expired-deadlines");
}

TEST(BatchControllerTest, JoinsBetweenBatchesMatchSequential) {
  WorkloadConfig config;
  config.seed = 19;
  config.mean_interarrival = 4.0;
  CostModel phi;
  const Tick horizon = 240;
  const auto requests = make_requests(config, horizon, phi);
  ASSERT_GT(requests.size(), 10u);
  const ResourceSet supply = supply_for(config, horizon, phi);

  ResourceSet extra;
  extra.add(3, TimeInterval(100, 200),
            LocatedType::cpu(WorkloadGenerator(config, phi).locations()[0]));

  const std::size_t half = requests.size() / 2;
  const std::vector<BatchRequest> first(requests.begin(), requests.begin() + half);
  const std::vector<BatchRequest> second(requests.begin() + half, requests.end());

  RotaAdmissionController sequential(phi, supply);
  std::vector<AdmissionDecision> expected;
  for (const auto& r : first) expected.push_back(sequential.request(r.rho, r.at));
  sequential.on_join(extra);
  for (const auto& r : second) expected.push_back(sequential.request(r.rho, r.at));

  BatchAdmissionController batch(phi, supply, PlanningPolicy::kAsap, 4);
  auto actual = batch.admit_batch(first);
  batch.on_join(extra);
  for (auto& d : batch.admit_batch(second)) actual.push_back(std::move(d));

  expect_identical(expected, actual, "joins-between-batches");
  EXPECT_EQ(sequential.ledger().residual(), batch.ledger().residual());
}

// Labeled `tsan` via the runtime suite: behind-the-clock arrivals make the
// committer expire the ledger mid-round while lanes still speculate.
TEST(BatchControllerTest, ArrivalJitteredParityAcrossJoins) {
  const Tick horizon = 160;
  std::size_t behind_the_clock = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    WorkloadConfig config;
    config.seed = seed;
    config.mean_interarrival = 3.0;
    config.laxity = 1.6;
    CostModel phi;
    // Some requests reach the controller late: they keep their arrival tick
    // but queue behind requests stamped up to 12 ticks after it, so the
    // ledger clock has passed the start of their window when they are
    // decided.
    const auto in_order = make_requests(config, horizon, phi);
    util::Rng rng(seed * 7919);
    std::vector<std::pair<Tick, std::size_t>> queue;
    for (std::size_t i = 0; i < in_order.size(); ++i) {
      queue.emplace_back(in_order[i].at + (rng.chance(0.25) ? rng.uniform(1, 12) : 0), i);
    }
    std::stable_sort(queue.begin(), queue.end());
    std::vector<BatchRequest> requests;
    Tick clock = 0;
    for (const auto& [delivered, i] : queue) {
      requests.push_back(in_order[i]);
      if (in_order[i].at < clock) ++behind_the_clock;
      clock = std::max(clock, in_order[i].at);
    }
    const ResourceSet supply = supply_for(config, horizon, phi);
    const std::size_t half = requests.size() / 2;
    const std::vector<BatchRequest> first(requests.begin(), requests.begin() + half);
    const std::vector<BatchRequest> second(requests.begin() + half, requests.end());
    // Straddles the clock at the join: its first part has already lapsed.
    ResourceSet extra;
    extra.add(4, TimeInterval(horizon / 4, horizon),
              LocatedType::cpu(WorkloadGenerator(config, phi).locations()[0]));

    RotaAdmissionController sequential(phi, supply);
    std::vector<AdmissionDecision> expected;
    for (const auto& r : first) expected.push_back(sequential.request(r.rho, r.at));
    const ResourceSet residual_at_join = sequential.ledger().residual();
    sequential.on_join(extra);
    for (const auto& r : second) expected.push_back(sequential.request(r.rho, r.at));

    for (std::size_t lanes : {1u, 2u, 4u, 8u}) {
      const std::string where =
          "seed=" + std::to_string(seed) + " lanes=" + std::to_string(lanes);
      BatchAdmissionController batch(phi, supply, PlanningPolicy::kAsap, lanes);
      auto actual = batch.admit_batch(first);
      EXPECT_EQ(batch.ledger().residual(), residual_at_join) << where;
      batch.on_join(extra);
      for (auto& d : batch.admit_batch(second)) actual.push_back(std::move(d));
      expect_identical(expected, actual, where);
      EXPECT_EQ(batch.ledger().residual(), sequential.ledger().residual()) << where;
      EXPECT_EQ(batch.ledger().now(), sequential.ledger().now()) << where;
      EXPECT_EQ(batch.ledger().lapsed_before(), sequential.ledger().lapsed_before())
          << where;
    }
  }
  // The jitter must actually exercise the behind-the-clock path.
  EXPECT_GT(behind_the_clock, 300u);
}

// Expiry keeps the live ledger at the size of its future, not its history:
// several horizons of in-order arrivals leave the residual no larger than
// one horizon's worth.
TEST(BatchControllerTest, ResidualPlateausAcrossHorizons) {
  WorkloadConfig config;
  config.seed = 5;
  config.mean_interarrival = 2.0;
  config.laxity = 1.6;
  CostModel phi;
  const Tick window = 150;
  const int horizons = 6;
  const auto requests = make_requests(config, window * horizons, phi);
  const ResourceSet supply = supply_for(config, window * (horizons + 1), phi);
  BatchAdmissionController batch(phi, supply, PlanningPolicy::kAsap, 2);
  std::vector<std::size_t> terms;
  auto it = requests.begin();
  for (int h = 1; h <= horizons; ++h) {
    std::vector<BatchRequest> chunk;
    for (; it != requests.end() && it->at < window * h; ++it) chunk.push_back(*it);
    batch.admit_batch(chunk);
    EXPECT_EQ(batch.ledger().lapsed_before(), batch.ledger().now());
    terms.push_back(batch.ledger().residual().term_count());
  }
  ASSERT_GT(batch.ledger().admitted_count(), 50u);
  const std::size_t first = terms.front();
  ASSERT_GT(first, 0u);
  for (std::size_t h = 1; h < terms.size(); ++h) {
    EXPECT_LE(terms[h], 2 * first) << "after horizon " << h + 1;
  }
}

TEST(BatchControllerTest, EmptyBatchIsANoOp) {
  CostModel phi;
  ResourceSet supply;
  supply.add(2, TimeInterval(0, 10), LocatedType::cpu(Location("bc-l2")));
  BatchAdmissionController batch(phi, supply, PlanningPolicy::kAsap, 4);
  EXPECT_TRUE(batch.admit_batch({}).empty());
  EXPECT_EQ(batch.ledger().admitted_count(), 0u);
  EXPECT_EQ(batch.ledger().residual(), supply);
}

// Labeled `tsan` via the runtime suite: a large batch at full concurrency is
// the racy path ThreadSanitizer needs to see.
TEST(BatchControllerTest, StressManyLanesManyRequests) {
  WorkloadConfig config;
  config.seed = 23;
  config.mean_interarrival = 2.0;
  config.num_locations = 6;
  CostModel phi;
  const Tick horizon = 600;
  const auto requests = make_requests(config, horizon, phi);
  ASSERT_GT(requests.size(), 100u);
  const ResourceSet supply = supply_for(config, horizon, phi);

  BatchAdmissionController batch(phi, supply, PlanningPolicy::kAsap, 8);
  const auto decisions = batch.admit_batch(requests);
  const auto expected = run_sequential(requests, phi, supply, PlanningPolicy::kAsap);
  expect_identical(expected, decisions, "stress");
}

// ---- the round itself --------------------------------------------------------

/// One evaluate-3 job at `site`, window [start, deadline), as a request
/// arriving at `at`.
BatchRequest round_job(const std::string& name, const Location& site, Tick start,
                       Tick deadline, Tick at) {
  ActorComputationBuilder builder(name + "-actor", site);
  builder.evaluate(3);
  builder.ready();
  return BatchRequest{
      make_concurrent_requirement(
          CostModel{}, DistributedComputation(name, {std::move(builder).build()},
                                              start, deadline)),
      at};
}

// A request whose planning budget ran out is settled without a commit, and
// the requests behind it in the same round are still decided — exactly as the
// sequential controller decides them without it.
TEST(AdmitRoundTest, CancelledSlotIsSettledWithoutEndingTheRound) {
  const Location a("round-a"), b("round-b"), c("round-c");
  ResourceSet supply;
  for (const Location& site : {a, b, c}) {
    supply.add(10, TimeInterval(0, 100), LocatedType::cpu(site));
  }
  std::vector<BatchRequest> requests = {round_job("ja", a, 0, 60, 0),
                                        round_job("jb", b, 0, 60, 0),
                                        round_job("jc", c, 0, 60, 0)};
  CancellationToken spent;
  spent.cancel();
  requests[1].budget = &spent;

  CommitmentLedger ledger(supply, 0);
  ThreadPool pool(2);
  const std::vector<RoundOutcome> outcomes =
      admit_round(PlanningKernel{}, ledger, pool, requests);
  ASSERT_EQ(outcomes.size(), 3u) << "one round settles all three";
  EXPECT_EQ(outcomes[1].planned, PlanStatus::kCancelled);
  EXPECT_FALSE(outcomes[1].decision.accepted);
  EXPECT_EQ(outcomes[1].decision.reason, "planning budget exhausted");

  RotaAdmissionController referee(CostModel{}, supply);
  for (const std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    const AdmissionDecision expected = referee.request(requests[i].rho, 0);
    ASSERT_TRUE(expected.accepted);
    EXPECT_TRUE(outcomes[i].decision.accepted) << "request #" << i;
    EXPECT_EQ(outcomes[i].decision.plan, expected.plan) << "request #" << i;
  }
  EXPECT_EQ(ledger.admitted_count(), 2u);
  EXPECT_EQ(ledger.residual(), referee.ledger().residual());
}

// The round owns no expiry: once a commit has moved the clock, it ends before
// a later slot whose window starts behind the clock, and the next round takes
// that slot at its head.
TEST(AdmitRoundTest, LateArrivalEndsTheRoundOnceTheClockMoved) {
  const Location a("round-late-a"), b("round-late-b");
  ResourceSet supply;
  for (const Location& site : {a, b}) {
    supply.add(10, TimeInterval(0, 100), LocatedType::cpu(site));
  }
  const std::vector<BatchRequest> requests = {round_job("on-time", a, 0, 60, 10),
                                              round_job("late", b, 0, 60, 2)};
  CommitmentLedger ledger(supply, 0);
  ThreadPool pool(1);
  const PlanningKernel kernel;
  const std::vector<RoundOutcome> first = admit_round(kernel, ledger, pool, requests);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_TRUE(first[0].decision.accepted);
  EXPECT_EQ(ledger.now(), 10);

  const std::vector<RoundOutcome> second =
      admit_round(kernel, ledger, pool, std::span(requests).subspan(1));
  ASSERT_EQ(second.size(), 1u) << "at the head, the late slot is decided";
  EXPECT_TRUE(second[0].decision.accepted);
}

}  // namespace
}  // namespace rota
