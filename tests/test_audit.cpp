#include "rota/admission/audit.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "rota/admission/controller.hpp"

namespace rota {
namespace {

class AuditTest : public ::testing::Test {
 protected:
  Location l1{"au-l1"};
  CostModel phi;
  LocatedType cpu1 = LocatedType::cpu(l1);

  ResourceSet supply() {
    ResourceSet s;
    s.add(4, TimeInterval(0, 40), cpu1);
    return s;
  }

  DistributedComputation job(const std::string& name, Tick s, Tick d,
                             std::int64_t w = 1) {
    auto gamma = ActorComputationBuilder(name + ".a", l1).evaluate(w).build();
    return DistributedComputation(name, {gamma}, s, d);
  }

  RotaAdmissionController ctl{phi, supply()};
  AuditLog audit;

  /// Decides `lambda` and records the decision in the trail kept beside the
  /// controller.
  AdmissionDecision request(const DistributedComputation& lambda, Tick now) {
    const ConcurrentRequirement rho = make_concurrent_requirement(phi, lambda);
    AdmissionDecision decision = ctl.request(rho, now);
    audit.record(now, rho, decision);
    return decision;
  }
};

TEST_F(AuditTest, RecordsDecisionsWithOutcomes) {
  EXPECT_TRUE(request(job("ok", 0, 10), 0).accepted);
  EXPECT_FALSE(request(job("too-big", 0, 4, 10), 0).accepted);

  ASSERT_EQ(audit.size(), 2u);
  const AuditEntry& ok = audit.entries()[0];
  EXPECT_EQ(ok.computation, "ok");
  EXPECT_TRUE(ok.accepted);
  EXPECT_EQ(ok.total_demand, 8);
  EXPECT_EQ(ok.planned_finish, 2);
  EXPECT_TRUE(ok.reason.empty());

  const AuditEntry& no = audit.entries()[1];
  EXPECT_FALSE(no.accepted);
  EXPECT_FALSE(no.reason.empty());
}

TEST_F(AuditTest, AcceptanceCountsEverythingEverRecorded) {
  AuditLog log(2);  // tiny retention
  AdmissionDecision yes;
  yes.accepted = true;
  AdmissionDecision no;
  no.reason = "r";
  ConcurrentRequirement rho("x", {}, TimeInterval(0, 10));
  log.record(0, rho, yes);
  log.record(1, rho, no);
  log.record(2, rho, no);
  log.record(3, rho, no);
  EXPECT_EQ(log.size(), 2u);            // rolled off
  EXPECT_EQ(log.total_recorded(), 4u);  // but still counted
  EXPECT_DOUBLE_EQ(log.acceptance(), 0.25);
}

TEST_F(AuditTest, RejectionReasonHistogram) {
  request(job("late", 0, 5), 9);      // deadline passed
  request(job("big", 0, 4, 10), 0);   // no plan
  request(job("big2", 0, 4, 10), 0);  // no plan again
  auto reasons = audit.rejection_reasons();
  ASSERT_EQ(reasons.size(), 2u);
  std::size_t total = 0;
  for (const auto& [reason, count] : reasons) total += count;
  EXPECT_EQ(total, 3u);
}

TEST_F(AuditTest, AcceptanceByWindowShowsDeadlinePressure) {
  // Tight windows (length 1) mostly fail; generous ones succeed.
  for (int i = 0; i < 4; ++i) request(job("t" + std::to_string(i), 0, 1), 0);
  for (int i = 0; i < 4; ++i) {
    request(job("g" + std::to_string(i), 0, 39), 0);
  }
  auto by_window = audit.acceptance_by_window(10);
  ASSERT_TRUE(by_window.contains(0));   // lengths 0-9
  ASSERT_TRUE(by_window.contains(3));   // lengths 30-39
  EXPECT_LT(by_window[0], by_window[3]);
}

TEST_F(AuditTest, MeanSlackFraction) {
  request(job("j", 0, 10), 0);  // finishes at 2 of a 10-tick window
  EXPECT_NEAR(audit.mean_slack_fraction(), 0.8, 1e-9);
}

TEST_F(AuditTest, InvalidArgumentsThrow) {
  EXPECT_THROW(AuditLog(0), std::invalid_argument);
  AuditLog log(4);
  EXPECT_THROW(log.acceptance_by_window(0), std::invalid_argument);
}

TEST_F(AuditTest, ToStringSummarizes) {
  request(job("j", 0, 10), 0);
  EXPECT_NE(audit.to_string().find("1 decisions"), std::string::npos);
}

TEST_F(AuditTest, EmptyLogDefaults) {
  AuditLog log;
  EXPECT_EQ(log.acceptance(), 0.0);
  EXPECT_EQ(log.mean_slack_fraction(), 0.0);
  EXPECT_TRUE(log.rejection_reasons().empty());
}


TEST_F(AuditTest, ReplayIntoReproducesLedgerRevisionAndResidual) {
  // The audit log doubles as a write-ahead record: replaying its accepted
  // entries onto a fresh ledger with the pre-crash supply must reproduce the
  // pre-crash residual *and* revision counter exactly.
  RotaAdmissionController live(phi, supply());
  AuditLog log;
  for (int i = 0; i < 4; ++i) {
    const std::string name = "r" + std::to_string(i);
    const Tick at = static_cast<Tick>(i);
    auto rho = make_concurrent_requirement(phi, job(name, at, at + 12, 2));
    log.record(at, rho, live.request(rho, at));
  }
  ASSERT_GT(live.ledger().revision(), 0u);

  CommitmentLedger recovered(supply(), 0);
  const std::size_t replayed = log.replay_into(recovered);
  EXPECT_EQ(replayed, live.ledger().admitted().size());
  EXPECT_EQ(recovered.revision(), live.ledger().revision());
  EXPECT_EQ(recovered.residual(), live.ledger().residual());
}

TEST_F(AuditTest, ReplaySkipsEntriesWhosePlanNoLongerFits) {
  ASSERT_TRUE(request(job("fits", 0, 10), 0).accepted);

  ResourceSet shrunken;  // half the original rate: the old plan cannot fit
  shrunken.add(2, TimeInterval(0, 40), cpu1);
  CommitmentLedger recovered(shrunken, 0);
  EXPECT_EQ(audit.replay_into(recovered), 0u);
  EXPECT_EQ(recovered.revision(), 0u);
}

}  // namespace
}  // namespace rota
