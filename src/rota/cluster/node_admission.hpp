// The admission backend a ClusterNode speaks the cluster protocol against.
//
// The protocol half of a node — probe/offer/claim, gossip, retries — needs
// exactly four admission operations. Factoring them behind an interface is
// what lets the *same* node code run in two worlds:
//
//   * BatchNodeAdmission (below): the node owns its ledger via a
//     BatchAdmissionController — the deterministic in-sim configuration,
//     byte-identical to the historical controller-owning ClusterNode;
//   * service::ServiceNodeAdmission: the node plans against the live
//     AdmissionService's sharded ledger: probes capture owned snapshots,
//     and claims and local batches decide in the service dispatcher's own
//     admission rounds (admit_round) under the service's ledger mutex — the
//     daemon configuration, where federation and live traffic must agree on
//     one residual.
//
// The contract mirrors the protocol's semantics: probe() is speculative and
// reserves nothing; claim() re-validates against the live residual and
// commits atomically; admit_batch() is the local-first FCFS path; digest()
// is the conservative residual hull gossip broadcasts.
#pragma once

#include <memory>
#include <vector>

#include "rota/admission/audit.hpp"
#include "rota/cluster/message.hpp"
#include "rota/runtime/batch_controller.hpp"

namespace rota::cluster {

class NodeAdmission {
 public:
  virtual ~NodeAdmission();

  /// Local-first admission of same-tick arrivals, exact FCFS semantics.
  virtual std::vector<AdmissionDecision> admit_batch(
      const std::vector<BatchRequest>& requests) = 0;

  /// Speculative feasibility for a probe: nothing is reserved; the answer may
  /// go stale the moment it is computed.
  virtual PlanResult probe(const ConcurrentRequirement& rho, Tick now) = 0;

  /// Claim-time re-validation: plans against the *live* residual and commits
  /// on success — the step that makes digest staleness cost retries, never
  /// soundness.
  virtual AdmissionDecision claim(const ConcurrentRequirement& rho, Tick now) = 0;

  /// The conservative residual hull to gossip, stamped with revision/tick.
  virtual SupplyDigest digest(Location site, Tick now,
                              std::size_t max_segments) = 0;
};

/// The owned-ledger backend: wraps a BatchAdmissionController, preserving the
/// pre-refactor ClusterNode's admission behavior exactly. Also carries the
/// fault-injection surface (drop / rebuild / recovery ledger) that only makes
/// sense when the node owns its state.
class BatchNodeAdmission final : public NodeAdmission {
 public:
  BatchNodeAdmission(CostModel phi, ResourceSet base_supply,
                     PlanningPolicy policy, std::size_t lanes, Tick now);

  std::vector<AdmissionDecision> admit_batch(
      const std::vector<BatchRequest>& requests) override;
  PlanResult probe(const ConcurrentRequirement& rho, Tick now) override;
  AdmissionDecision claim(const ConcurrentRequirement& rho, Tick now) override;
  SupplyDigest digest(Location site, Tick now,
                      std::size_t max_segments) override;

  // --- fault injection (owned mode only) ---

  /// Crash: the ledger dies with the node.
  void drop_state();
  /// Restart: a fresh controller over the original base supply.
  void rebuild(Tick now);
  bool dropped() const { return controller_ == nullptr; }

  const CommitmentLedger& ledger() const { return controller_->ledger(); }
  /// Mutable ledger for audit-log replay after rebuild().
  CommitmentLedger& ledger_for_recovery() {
    return controller_->ledger_for_recovery();
  }

 private:
  CostModel phi_;
  ResourceSet base_supply_;
  PlanningPolicy policy_;
  std::size_t lanes_;
  std::unique_ptr<BatchAdmissionController> controller_;
};

}  // namespace rota::cluster
