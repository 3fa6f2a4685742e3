// The ROTA admission controller: Theorem 4 as an online service.
//
// On each request the controller derives ρ(Λ, s, d) via Φ and hands it to
// the planning kernel: speculate against a snapshot of the ledger's
// residual, commit the result. Every admitted computation therefore has a
// concrete consumption plan that provably fits alongside all earlier
// admissions — the deadline assurance the paper is after. The controller
// itself is a thin wrapper: the accept/reject semantics live entirely in
// rota/plan/ (one audited code path shared by every admission surface).
//
// The controller is also the Theorem-4 AdmissionStrategy the §VI benchmarks
// drive next to the baselines (rota/admission/baselines.hpp).
#pragma once

#include <string>

#include "rota/admission/ledger.hpp"
#include "rota/computation/requirement.hpp"
#include "rota/plan/kernel.hpp"

namespace rota {

/// Uniform interface the benchmark harness drives. Implementations decide
/// admission only; execution outcomes come from the simulator.
class AdmissionStrategy {
 public:
  virtual ~AdmissionStrategy() = default;

  virtual std::string name() const = 0;
  virtual AdmissionDecision request(const DistributedComputation& lambda, Tick now) = 0;
  virtual void on_join(const ResourceSet& joined) = 0;
};

/// Theorem-4 admission (sound: admitted computations carry feasible plans).
class RotaAdmissionController final : public AdmissionStrategy {
 public:
  RotaAdmissionController(CostModel phi, ResourceSet initial_supply,
                          PlanningPolicy policy = PlanningPolicy::kAsap,
                          Tick now = 0)
      : phi_(std::move(phi)),
        ledger_(std::move(initial_supply), now),
        kernel_(policy) {}

  /// Decides (Λ, s, d) at time `now`. Advances the ledger clock and expires
  /// supply before it (PlanningKernel::decide).
  AdmissionDecision request(const DistributedComputation& lambda, Tick now) override;

  /// Decides an already-derived requirement (for callers with their own Φ).
  AdmissionDecision request(const ConcurrentRequirement& rho, Tick now) {
    return kernel_.decide(ledger_, rho, now);
  }

  /// "rota-<policy>" (e.g. "rota-asap"): the label the §VI tables print.
  std::string name() const override { return "rota-" + policy_name(policy()); }

  /// Resource acquisition rule.
  void on_join(const ResourceSet& joined) override { ledger_.join(joined); }

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
