#include "rota/logic/model_checker.hpp"

#include <algorithm>
#include <stdexcept>

#include "rota/logic/explorer.hpp"

namespace rota {

namespace {

template <class... Ts>
struct Overloaded : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
Overloaded(Ts...) -> Overloaded<Ts...>;

}  // namespace

ResourceSet ModelChecker::expire_within(std::size_t position,
                                        const TimeInterval& window) const {
  const Tick t = path_.state(position).now();
  // (max(s, t), d): the requirement window clipped to the present.
  const TimeInterval clipped(std::max(window.start(), t), window.end());
  return path_.expiring_resources(position, clipped);
}

bool ModelChecker::satisfies(const Formula& psi, std::size_t position) const {
  if (position >= path_.size()) {
    throw std::out_of_range("ModelChecker: position beyond path end");
  }
  return std::visit(
      Overloaded{
          [](const TrueAtom&) { return true; },
          [](const FalseAtom&) { return false; },
          [&](const SatisfySimple& s) {
            const ResourceSet expiring = expire_within(position, s.rho.window());
            const Tick t = path_.state(position).now();
            const TimeInterval clipped(std::max(s.rho.window().start(), t),
                                       s.rho.window().end());
            return expiring.satisfies(s.rho.demand(), clipped);
          },
          [&](const SatisfyComplex& s) {
            const Tick t = path_.state(position).now();
            const TimeInterval clipped(std::max(s.rho.window().start(), t),
                                       s.rho.window().end());
            if (clipped.empty()) return false;  // deadline already passed
            const ResourceSet expiring = expire_within(position, s.rho.window());
            const ComplexRequirement clipped_req(s.rho.actor(), s.rho.phases(),
                                                 clipped, s.rho.rate_cap());
            return plan_actor(expiring, clipped_req, policy_).has_value();
          },
          [&](const SatisfyConcurrent& s) {
            const Tick t = path_.state(position).now();
            const TimeInterval clipped(std::max(s.rho.window().start(), t),
                                       s.rho.window().end());
            if (clipped.empty()) return false;
            const ResourceSet expiring = expire_within(position, s.rho.window());
            std::vector<ComplexRequirement> clipped_actors;
            clipped_actors.reserve(s.rho.actors().size());
            for (const auto& a : s.rho.actors()) {
              clipped_actors.emplace_back(a.actor(), a.phases(), clipped, a.rate_cap());
            }
            const ConcurrentRequirement clipped_req(s.rho.name(),
                                                    std::move(clipped_actors), clipped);
            if (plan_concurrent(expiring, clipped_req, policy_)) return true;
            // The sequential planner plans actors one at a time and is
            // order-sensitive, so its rejection of a contended multi-actor
            // instance may be spurious; climb the exact ladder before
            // answering no.
            SystemState probe(expiring, t);
            probe.accommodate(clipped_req);
            return search_feasible(probe, clipped.end()).has_value();
          },
          [&](const NotOp& n) { return !satisfies(*n.operand, position); },
          [&](const EventuallyOp& n) {
            for (std::size_t p = position + 1; p < path_.size(); ++p) {
              if (satisfies(*n.operand, p)) return true;
            }
            return false;
          },
          [&](const AlwaysOp& n) {
            for (std::size_t p = position + 1; p < path_.size(); ++p) {
              if (!satisfies(*n.operand, p)) return false;
            }
            return true;
          },
      },
      psi.node());
}

}  // namespace rota
