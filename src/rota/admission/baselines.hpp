// The baselines ROTA is evaluated against.
//
// The paper argues (§III) that "it is not necessarily enough for the total
// amount of resource available over the course of an interval to be greater"
// — temporal structure matters. The baselines here embody exactly the
// reasoning shortcuts that argument rules out, so the benchmarks can show
// what the shortcuts cost:
//   * NaiveTotalQuantity — bookkeeping on aggregate quantities per window,
//     blind to rates and to phase ordering (over-admits);
//   * Optimistic       — checks the newcomer's demand against raw supply,
//     ignoring other commitments entirely (over-admits badly under load);
//   * AlwaysAdmit      — the no-control upper bound on acceptance.
// Each is an AdmissionStrategy (rota/admission/controller.hpp), as is the
// Theorem-4 RotaAdmissionController they are measured against (never
// over-admits).
#pragma once

#include <string>
#include <vector>

#include "rota/admission/controller.hpp"

namespace rota {

/// Admits when, for every located type, the supply quantity within the new
/// window covers the new demand plus all previously admitted demands whose
/// windows overlap it. Quantity-only: no rate limits, no ordering.
class NaiveTotalQuantityStrategy final : public AdmissionStrategy {
 public:
  NaiveTotalQuantityStrategy(CostModel phi, ResourceSet supply)
      : phi_(std::move(phi)), supply_(std::move(supply)) {}

  std::string name() const override { return "naive-total"; }
  AdmissionDecision request(const DistributedComputation& lambda, Tick now) override;
  void on_join(const ResourceSet& joined) override {
    supply_ = supply_.unioned(joined);
  }

 private:
  struct Booking {
    TimeInterval window;
    DemandSet demand;
  };

  CostModel phi_;
  ResourceSet supply_;
  std::vector<Booking> bookings_;
};

/// Admits when raw supply within the window covers the newcomer's demand —
/// existing commitments ignored.
class OptimisticStrategy final : public AdmissionStrategy {
 public:
  OptimisticStrategy(CostModel phi, ResourceSet supply)
      : phi_(std::move(phi)), supply_(std::move(supply)) {}

  std::string name() const override { return "optimistic"; }
  AdmissionDecision request(const DistributedComputation& lambda, Tick now) override;
  void on_join(const ResourceSet& joined) override {
    supply_ = supply_.unioned(joined);
  }

 private:
  CostModel phi_;
  ResourceSet supply_;
};

/// Admits everything with a live deadline.
class AlwaysAdmitStrategy final : public AdmissionStrategy {
 public:
  std::string name() const override { return "always-admit"; }
  AdmissionDecision request(const DistributedComputation& lambda, Tick now) override;
  void on_join(const ResourceSet&) override {}
};

}  // namespace rota
