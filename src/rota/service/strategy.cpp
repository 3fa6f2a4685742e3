#include "rota/service/strategy.hpp"

#include "rota/cluster/digest.hpp"

namespace rota::service {

namespace {

class ExactStrategy final : public AnytimeStrategy {
 public:
  explicit ExactStrategy(const PlanningKernel& kernel) : kernel_(kernel) {}

  const char* name() const override { return "exact"; }

  PlanResult speculate(const ConcurrentRequirement& rho, Tick at,
                       const FeasibilitySnapshot& snapshot,
                       const CancellationToken& cancel) override {
    SpeculateOptions options;
    options.cancel = &cancel;
    return kernel_.speculate(rho, at, snapshot, options);
  }

 private:
  const PlanningKernel& kernel_;
};

class DigestStrategy final : public AnytimeStrategy {
 public:
  DigestStrategy(const PlanningKernel& kernel, std::size_t max_segments)
      : kernel_(kernel), max_segments_(max_segments) {}

  const char* name() const override { return "digest"; }

  PlanResult speculate(const ConcurrentRequirement& rho, Tick at,
                       const FeasibilitySnapshot& snapshot,
                       const CancellationToken& cancel) override {
    const TimeInterval window = effective_window(rho, at);
    SpeculateOptions options;
    options.cancel = &cancel;
    options.symbolic_rescue = false;
    if (window.empty()) {
      // Nothing to compact; the kernel short-circuits to kDeadlinePassed.
      return kernel_.speculate(rho, at, snapshot, options);
    }
    // The hull is dominated by the true view everywhere (bucket-minimum
    // compaction), so planning against it can only under-promise: feasible
    // plans transfer to the live residual unchanged.
    const ResourceSet hull = cluster::compact_hull(snapshot.view(), max_segments_);
    options.view_override = &hull;
    return kernel_.speculate(rho, at, snapshot, options);
  }

 private:
  const PlanningKernel& kernel_;
  std::size_t max_segments_;
};

class GreedyStrategy final : public AnytimeStrategy {
 public:
  explicit GreedyStrategy(const PlanningKernel& kernel) : kernel_(kernel) {}

  const char* name() const override { return "greedy"; }

  PlanResult speculate(const ConcurrentRequirement& rho, Tick at,
                       const FeasibilitySnapshot& snapshot,
                       const CancellationToken& cancel) override {
    SpeculateOptions options;
    options.cancel = &cancel;
    options.symbolic_rescue = false;
    return kernel_.speculate(rho, at, snapshot, options);
  }

 private:
  const PlanningKernel& kernel_;
};

}  // namespace

const char* strategy_name(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kExact: return "exact";
    case StrategyKind::kDigest: return "digest";
    case StrategyKind::kGreedy: return "greedy";
  }
  return "exact";
}

StrategyRegistry::StrategyRegistry(const PlanningKernel& kernel,
                                   std::size_t digest_max_segments) {
  rungs_[static_cast<int>(StrategyKind::kExact)] =
      std::make_unique<ExactStrategy>(kernel);
  rungs_[static_cast<int>(StrategyKind::kDigest)] =
      std::make_unique<DigestStrategy>(kernel, digest_max_segments);
  rungs_[static_cast<int>(StrategyKind::kGreedy)] =
      std::make_unique<GreedyStrategy>(kernel);
}

void StrategyRegistry::replace(StrategyKind kind,
                               std::unique_ptr<AnytimeStrategy> strategy) {
  rungs_[static_cast<int>(kind)] = std::move(strategy);
}

StrategyKind StrategyRegistry::pick(std::uint64_t budget_ns,
                                    StrategyKind floor) const {
  for (int k = static_cast<int>(floor); k < kStrategyCount - 1; ++k) {
    if (rungs_[k]->predicted_cost_ns() <= budget_ns) {
      return static_cast<StrategyKind>(k);
    }
  }
  return StrategyKind::kGreedy;
}

}  // namespace rota::service
