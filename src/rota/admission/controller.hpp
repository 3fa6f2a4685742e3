// The ROTA admission controller: Theorem 4 as an online service.
//
// On each request the controller derives ρ(Λ, s, d) via Φ and hands it to
// the planning kernel: speculate against a snapshot of the ledger's
// residual, commit the result. Every admitted computation therefore has a
// concrete consumption plan that provably fits alongside all earlier
// admissions — the deadline assurance the paper is after. The controller
// itself is a thin wrapper: the accept/reject semantics live entirely in
// rota/plan/ (one audited code path shared by every admission surface).
#pragma once

#include <optional>
#include <string>

#include "rota/admission/ledger.hpp"
#include "rota/computation/requirement.hpp"
#include "rota/plan/kernel.hpp"

namespace rota {

class RotaAdmissionController {
 public:
  RotaAdmissionController(CostModel phi, ResourceSet initial_supply,
                          PlanningPolicy policy = PlanningPolicy::kAsap,
                          Tick now = 0)
      : phi_(std::move(phi)),
        ledger_(std::move(initial_supply), now),
        kernel_(policy) {}

  /// Decides (Λ, s, d) at time `now`. Advances the ledger clock and expires
  /// supply before it (PlanningKernel::decide).
  AdmissionDecision request(const DistributedComputation& lambda, Tick now);

  /// Decides an already-derived requirement (for callers with their own Φ).
  AdmissionDecision request(const ConcurrentRequirement& rho, Tick now) {
    return kernel_.decide(ledger_, rho, now);
  }

  /// Commits a speculation produced against a snapshot of this controller's
  /// ledger; nullopt when the speculation went stale (re-speculate).
  std::optional<AdmissionDecision> commit(const PlanResult& result) {
    AdmissionDecision decision;
    if (kernel_.commit(result, ledger_, decision) != CommitStatus::kCommitted) {
      return std::nullopt;
    }
    return decision;
  }

  /// Resource acquisition rule.
  void on_join(const ResourceSet& joined) { ledger_.join(joined); }

  /// Computation leave rule (only before the computation starts).
  bool release(const std::string& name) { return ledger_.release(name); }

  /// Gives away part of the uncommitted supply (CyberOrgs isolation); false
  /// if the residual does not cover the slice.
  bool carve(const ResourceSet& slice) { return ledger_.carve(slice); }

  /// Absorbs another controller's supply and commitments (CyberOrgs
  /// assimilation); the other controller is left empty.
  void absorb(RotaAdmissionController&& other) {
    ledger_.merge(std::move(other.ledger_));
  }

  const CommitmentLedger& ledger() const { return ledger_; }
  const CostModel& phi() const { return phi_; }
  const PlanningKernel& kernel() const { return kernel_; }
  PlanningPolicy policy() const { return kernel_.policy(); }

 private:
  CostModel phi_;
  CommitmentLedger ledger_;
  PlanningKernel kernel_;
};

}  // namespace rota
