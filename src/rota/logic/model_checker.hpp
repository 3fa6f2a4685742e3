// The Figure 1 satisfaction semantics: M, σ, t ⊨ ψ.
//
// Evaluation is relative to a computation path σ and a position on it. The
// satisfy() atoms are checked against Θ_expire — the resources that will
// expire unused along σ within the requirement's window (max(s, t), d): these
// are exactly the headroom a new computation could claim without disturbing
// the path's existing commitments.
//
//   satisfy(ρ(γ,s,d))   — f(Θ_expire, ρ): quantities cover the demand;
//   satisfy(ρ(Γ,s,d))   — cut points t1 < … < t(m-1) exist over Θ_expire
//                         (decided constructively by the ASAP planner, which
//                         is complete for a single actor);
//   satisfy(ρ(Λ,s,d))   — a per-actor plan over Θ_expire exists. The
//                         sequential planner decides the common case; when it
//                         fails, search_feasible's ladder (greedy orders, then
//                         the symbolic cut-point engine) takes over, making
//                         the verdict exact for contended multi-actor
//                         instances the engine decides (kUnknown: no);
//   ¬, ◇, □            — as usual, with ◇/□ ranging over strictly later
//                         positions of the (finite) path, per the paper's
//                         "∃/∀ t' > t".
#pragma once

#include "rota/logic/formula.hpp"
#include "rota/logic/path.hpp"
#include "rota/logic/planner.hpp"

namespace rota {

class ModelChecker {
 public:
  /// The checker borrows the path; it must outlive the checker.
  explicit ModelChecker(const ComputationPath& path,
                        PlanningPolicy policy = PlanningPolicy::kAsap)
      : path_(path), policy_(policy) {}

  /// M, σ, position ⊨ ψ. `position` indexes the path's states.
  bool satisfies(const Formula& psi, std::size_t position) const;
  bool satisfies(const FormulaPtr& psi, std::size_t position) const {
    return satisfies(*psi, position);
  }

 private:
  ResourceSet expire_within(std::size_t position, const TimeInterval& window) const;

  const ComputationPath& path_;
  PlanningPolicy policy_;
};

}  // namespace rota
