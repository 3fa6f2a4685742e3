#include "rota/admission/ledger.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "rota/computation/requirement.hpp"

namespace rota {
namespace {

class LedgerTest : public ::testing::Test {
 protected:
  Location l1{"lg-l1"};
  CostModel phi;
  LocatedType cpu1 = LocatedType::cpu(l1);

  ResourceSet supply() {
    ResourceSet s;
    s.add(4, TimeInterval(0, 10), cpu1);
    return s;
  }

  ConcurrentPlan plan_for(Quantity cpu_quantity, Tick s, Tick d,
                          const ResourceSet& against) {
    auto gamma = ActorComputationBuilder("a", l1)
                     .evaluate(cpu_quantity / 8)
                     .build();
    DistributedComputation lambda("x", {gamma}, s, d);
    auto plan = plan_concurrent(against, make_concurrent_requirement(phi, lambda),
                                PlanningPolicy::kAsap);
    EXPECT_TRUE(plan.has_value());
    return *plan;
  }
};

TEST_F(LedgerTest, FreshLedgerResidualEqualsSupply) {
  CommitmentLedger ledger(supply(), 0);
  EXPECT_EQ(ledger.residual(), ledger.supply());
  EXPECT_EQ(ledger.admitted_count(), 0u);
  EXPECT_EQ(ledger.now(), 0);
}

TEST_F(LedgerTest, AdmitSubtractsPlanUsage) {
  CommitmentLedger ledger(supply(), 0);
  ConcurrentPlan plan = plan_for(8, 0, 10, ledger.residual());
  ASSERT_TRUE(ledger.admit("x", TimeInterval(0, 10), plan));
  EXPECT_EQ(ledger.admitted_count(), 1u);
  EXPECT_EQ(ledger.residual().quantity(cpu1, TimeInterval(0, 10)), 32);
  // Supply is unchanged — only the residual shrinks.
  EXPECT_EQ(ledger.supply().quantity(cpu1, TimeInterval(0, 10)), 40);
}

TEST_F(LedgerTest, AdmitRejectsOversizedPlan) {
  CommitmentLedger ledger(supply(), 0);
  // A plan computed against a *bigger* pool than the residual offers.
  ResourceSet huge;
  huge.add(100, TimeInterval(0, 10), cpu1);
  ConcurrentPlan plan = plan_for(80, 0, 10, huge);
  // 80 units in one tick exceed the rate-4 residual.
  EXPECT_FALSE(ledger.admit("big", TimeInterval(0, 10), plan));
  EXPECT_EQ(ledger.admitted_count(), 0u);
  EXPECT_EQ(ledger.residual(), ledger.supply());  // untouched on failure
}

TEST_F(LedgerTest, JoinGrowsBothPools) {
  CommitmentLedger ledger(supply(), 0);
  ResourceSet extra;
  extra.add(2, TimeInterval(3, 6), cpu1);
  ledger.join(extra);
  EXPECT_EQ(ledger.supply().availability(cpu1).value_at(4), 6);
  EXPECT_EQ(ledger.residual().availability(cpu1).value_at(4), 6);
}

TEST_F(LedgerTest, ReleaseBeforeStartRestoresResidual) {
  CommitmentLedger ledger(supply(), 0);
  ConcurrentPlan plan = plan_for(8, 5, 10, ledger.residual());
  ASSERT_TRUE(ledger.admit("x", TimeInterval(5, 10), plan));
  const ResourceSet before = ledger.residual();
  EXPECT_TRUE(ledger.release("x"));
  EXPECT_EQ(ledger.admitted_count(), 0u);
  EXPECT_EQ(ledger.residual(), ledger.supply());
  EXPECT_NE(before, ledger.residual());
}

TEST_F(LedgerTest, ReleaseAfterStartThrows) {
  CommitmentLedger ledger(supply(), 0);
  ConcurrentPlan plan = plan_for(8, 0, 10, ledger.residual());
  ASSERT_TRUE(ledger.admit("x", TimeInterval(0, 10), plan));
  ledger.advance_to(3);
  EXPECT_THROW(ledger.release("x"), std::logic_error);
}

TEST_F(LedgerTest, ReleaseUnknownReturnsFalse) {
  CommitmentLedger ledger(supply(), 0);
  EXPECT_FALSE(ledger.release("ghost"));
}

TEST_F(LedgerTest, TimeIsMonotonic) {
  CommitmentLedger ledger(supply(), 5);
  ledger.advance_to(9);
  EXPECT_EQ(ledger.now(), 9);
  EXPECT_THROW(ledger.advance_to(3), std::logic_error);
}

TEST_F(LedgerTest, UtilizationTracksCommitments) {
  CommitmentLedger ledger(supply(), 0);
  EXPECT_DOUBLE_EQ(ledger.utilization(cpu1, TimeInterval(0, 10)), 0.0);
  ConcurrentPlan plan = plan_for(8, 0, 10, ledger.residual());
  ASSERT_TRUE(ledger.admit("x", TimeInterval(0, 10), plan));
  EXPECT_DOUBLE_EQ(ledger.utilization(cpu1, TimeInterval(0, 10)), 0.2);  // 8/40
  // A window with no supply reports zero.
  EXPECT_DOUBLE_EQ(ledger.utilization(cpu1, TimeInterval(50, 60)), 0.0);
}

TEST_F(LedgerTest, ExpireIsIdempotentAndLeavesRevisionAlone) {
  CommitmentLedger ledger(supply(), 0);
  EXPECT_EQ(ledger.lapsed_before(), CommitmentLedger::kNothingLapsed);
  ledger.advance_to(4);
  const std::uint64_t revision = ledger.revision();
  ledger.expire();
  EXPECT_EQ(ledger.lapsed_before(), 4);
  EXPECT_EQ(ledger.revision(), revision);
  EXPECT_EQ(ledger.residual().quantity(cpu1, TimeInterval(0, 4)), 0);
  EXPECT_EQ(ledger.residual().quantity(cpu1, TimeInterval(4, 10)), 24);
  EXPECT_EQ(ledger.supply(), ledger.residual());
  const ResourceSet once = ledger.residual();
  ledger.expire();
  EXPECT_EQ(ledger.residual(), once);
  EXPECT_EQ(ledger.lapsed_before(), 4);
  EXPECT_EQ(ledger.revision(), revision);
  // Expiring past the whole supply leaves nothing, not a zero profile.
  ledger.advance_to(12);
  ledger.expire();
  EXPECT_TRUE(ledger.residual().types().empty());
  EXPECT_TRUE(ledger.supply().types().empty());
}

TEST_F(LedgerTest, JoinAfterExpireDropsTheLapsedPart) {
  CommitmentLedger ledger(supply(), 0);
  ledger.advance_to(5);
  ledger.expire();
  ResourceSet extra;
  extra.add(2, TimeInterval(2, 8), cpu1);
  ledger.join(extra);
  EXPECT_EQ(ledger.supply().availability(cpu1).value_at(3), 0);
  EXPECT_EQ(ledger.residual().availability(cpu1).value_at(3), 0);
  EXPECT_EQ(ledger.residual().availability(cpu1).value_at(6), 6);
  EXPECT_EQ(ledger.supply().availability(cpu1).value_at(6), 6);
  // Joining only lapsed supply adds nothing.
  const ResourceSet before = ledger.residual();
  ResourceSet stale;
  stale.add(3, TimeInterval(0, 5), LocatedType::cpu(Location("lg-l2")));
  ledger.join(stale);
  EXPECT_EQ(ledger.residual(), before);
}

TEST_F(LedgerTest, ReleaseOfUnstartedComputationIsUnaffectedByExpire) {
  CommitmentLedger ledger(supply(), 0);
  ConcurrentPlan plan = plan_for(8, 6, 10, ledger.residual());
  ASSERT_TRUE(ledger.admit("x", TimeInterval(6, 10), plan));
  ledger.advance_to(3);
  ledger.expire();
  EXPECT_TRUE(ledger.release("x"));
  EXPECT_EQ(ledger.residual(), ledger.supply());
  EXPECT_EQ(ledger.residual().quantity(cpu1, TimeInterval(0, 10)), 28);
}

TEST_F(LedgerTest, MergeKeepsTheLaterLapsePoint) {
  CommitmentLedger early(supply(), 0);
  early.advance_to(2);
  early.expire();
  ResourceSet other_supply;
  other_supply.add(1, TimeInterval(0, 10), LocatedType::cpu(Location("lg-l2")));
  CommitmentLedger late(other_supply, 0);
  late.advance_to(6);
  late.expire();

  early.merge(std::move(late));
  EXPECT_EQ(early.lapsed_before(), 6);
  EXPECT_EQ(early.now(), 6);
  // The absorbing ledger's own past before the later point is gone too.
  EXPECT_EQ(early.residual().quantity(cpu1, TimeInterval(0, 10)), 16);
  EXPECT_EQ(early.residual().term_count(), 2u);

  CommitmentLedger fresh(supply(), 0);
  CommitmentLedger expired(ResourceSet{}, 0);
  expired.advance_to(3);
  expired.expire();
  expired.merge(std::move(fresh));
  EXPECT_EQ(expired.lapsed_before(), 3);
  EXPECT_EQ(expired.residual().quantity(cpu1, TimeInterval(0, 10)), 28);
}

}  // namespace
}  // namespace rota
