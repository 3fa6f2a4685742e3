#include "rota/cluster/node_admission.hpp"

#include "rota/cluster/digest.hpp"

namespace rota::cluster {

NodeAdmission::~NodeAdmission() = default;

BatchNodeAdmission::BatchNodeAdmission(CostModel phi, ResourceSet base_supply,
                                       PlanningPolicy policy, std::size_t lanes,
                                       Tick now)
    : phi_(std::move(phi)),
      base_supply_(std::move(base_supply)),
      policy_(policy),
      lanes_(lanes),
      controller_(std::make_unique<BatchAdmissionController>(
          phi_, base_supply_, policy_, lanes_, now)) {}

std::vector<AdmissionDecision> BatchNodeAdmission::admit_batch(
    const std::vector<BatchRequest>& requests) {
  return controller_->admit_batch(requests);
}

PlanResult BatchNodeAdmission::probe(const ConcurrentRequirement& rho,
                                     Tick now) {
  return controller_->kernel().speculate(
      rho, now,
      FeasibilitySnapshot::capture(controller_->ledger(),
                                   effective_window(rho, now),
                                   touched_shard_mask(rho)));
}

AdmissionDecision BatchNodeAdmission::claim(const ConcurrentRequirement& rho,
                                            Tick now) {
  return std::move(controller_->admit_batch({BatchRequest{rho, now}}).front());
}

SupplyDigest BatchNodeAdmission::digest(Location site, Tick now,
                                        std::size_t max_segments) {
  return make_digest(controller_->ledger(), site, now, max_segments);
}

void BatchNodeAdmission::drop_state() { controller_.reset(); }

void BatchNodeAdmission::rebuild(Tick now) {
  controller_ = std::make_unique<BatchAdmissionController>(phi_, base_supply_,
                                                           policy_, lanes_, now);
}

}  // namespace rota::cluster
