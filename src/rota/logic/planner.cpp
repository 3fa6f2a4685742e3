#include "rota/logic/planner.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace rota {

std::string policy_name(PlanningPolicy p) {
  switch (p) {
    case PlanningPolicy::kAsap: return "asap";
    case PlanningPolicy::kAlap: return "alap";
    case PlanningPolicy::kUniform: return "uniform";
  }
  throw std::invalid_argument("invalid PlanningPolicy");
}

Quantity ActorPlan::total_consumption() const {
  Quantity total = 0;
  for (const auto& [type, f] : usage) total += f.integral();
  return total;
}

std::map<LocatedType, StepFunction> ConcurrentPlan::total_usage() const {
  std::map<LocatedType, StepFunction> out;
  for (const auto& a : actors) {
    for (const auto& [type, f] : a.usage) {
      auto [it, inserted] = out.emplace(type, f);
      if (!inserted) it->second.add(f);
    }
  }
  return out;
}

ResourceSet ConcurrentPlan::usage_as_resources() const {
  ResourceSet out;
  for (auto& [type, f] : total_usage()) out.add(type, std::move(f));
  return out;
}

namespace {

struct Consumption {
  StepFunction usage;
  Tick boundary = 0;  // finish for forward planning, start for backward
};

/// Availability as one actor sees it: pointwise-capped by the actor's
/// absorption rate (a serial actor cannot drink a node dry in one tick).
/// Capped copies are cached per type.
class CappedView {
 public:
  CappedView(const ResourceSet& available, const TimeInterval& window, Rate cap)
      : available_(available), window_(window), cap_(cap) {}

  const StepFunction& of(const LocatedType& type) {
    if (cap_ <= 0) return available_.availability(type);
    auto it = cache_.find(type);
    if (it == cache_.end()) {
      it = cache_
               .emplace(type, available_.availability(type).min(
                                  StepFunction(window_, cap_)))
               .first;
    }
    return it->second;
  }

 private:
  const ResourceSet& available_;
  TimeInterval window_;
  Rate cap_;
  std::map<LocatedType, StepFunction> cache_;
};

/// Consume quantity q as early as possible from `avail` within `window`.
std::optional<Consumption> consume_asap(const StepFunction& avail,
                                        const TimeInterval& window, Quantity q) {
  Consumption out;
  if (q == 0) {
    out.boundary = window.start();
    return out;
  }
  Quantity remaining = q;
  for (const auto& seg : avail.segments()) {
    if (seg.value <= 0) continue;
    const TimeInterval x = seg.interval.intersection(window);
    if (x.empty()) continue;
    const Quantity covers = static_cast<Quantity>(x.length()) * seg.value;
    if (covers < remaining) {
      out.usage.add(x, seg.value);
      remaining -= covers;
      continue;
    }
    const Tick full_ticks = remaining / seg.value;
    const Quantity partial = remaining - full_ticks * seg.value;
    if (full_ticks > 0) {
      out.usage.add(TimeInterval(x.start(), x.start() + full_ticks), seg.value);
    }
    if (partial > 0) {
      out.usage.add(TimeInterval(x.start() + full_ticks, x.start() + full_ticks + 1),
                    partial);
    }
    out.boundary = x.start() + full_ticks + (partial > 0 ? 1 : 0);
    return out;
  }
  return std::nullopt;
}

/// Consume quantity q as late as possible from `avail` within `window`.
std::optional<Consumption> consume_alap(const StepFunction& avail,
                                        const TimeInterval& window, Quantity q) {
  Consumption out;
  if (q == 0) {
    out.boundary = window.end();
    return out;
  }
  Quantity remaining = q;
  const auto& segs = avail.segments();
  for (auto it = segs.rbegin(); it != segs.rend(); ++it) {
    if (it->value <= 0) continue;
    const TimeInterval x = it->interval.intersection(window);
    if (x.empty()) continue;
    const Quantity covers = static_cast<Quantity>(x.length()) * it->value;
    if (covers < remaining) {
      out.usage.add(x, it->value);
      remaining -= covers;
      continue;
    }
    const Tick full_ticks = remaining / it->value;
    const Quantity partial = remaining - full_ticks * it->value;
    if (full_ticks > 0) {
      out.usage.add(TimeInterval(x.end() - full_ticks, x.end()), it->value);
    }
    if (partial > 0) {
      out.usage.add(TimeInterval(x.end() - full_ticks - 1, x.end() - full_ticks),
                    partial);
    }
    out.boundary = x.end() - full_ticks - (partial > 0 ? 1 : 0);
    return out;
  }
  return std::nullopt;
}

std::optional<ActorPlan> plan_asap(const ResourceSet& available,
                                   const ComplexRequirement& req) {
  ActorPlan plan;
  plan.actor = req.actor();
  plan.start = req.window().start();
  Tick cursor = req.window().start();
  const Tick deadline = req.window().end();
  CappedView view(available, req.window(), req.rate_cap());

  for (std::size_t i = 0; i < req.phases().size(); ++i) {
    const Phase& phase = req.phases()[i];
    const TimeInterval slot(cursor, deadline);
    Tick phase_end = cursor;
    std::vector<std::pair<LocatedType, Consumption>> pieces;
    for (const auto& [type, q] : phase.demand.amounts()) {
      auto piece = consume_asap(view.of(type), slot, q);
      if (!piece) return std::nullopt;
      phase_end = std::max(phase_end, piece->boundary);
      pieces.emplace_back(type, std::move(*piece));
    }
    for (auto& [type, piece] : pieces) {
      auto [it, inserted] = plan.usage.emplace(type, piece.usage);
      if (!inserted) it->second.add(piece.usage);
    }
    if (i + 1 < req.phases().size()) plan.cut_points.push_back(phase_end);
    cursor = phase_end;
  }
  if (cursor > deadline) return std::nullopt;  // cannot happen, but guard
  plan.finish = cursor;
  return plan;
}

std::optional<ActorPlan> plan_alap(const ResourceSet& available,
                                   const ComplexRequirement& req) {
  ActorPlan plan;
  plan.actor = req.actor();
  Tick cursor = req.window().end();
  const Tick start = req.window().start();
  CappedView view(available, req.window(), req.rate_cap());

  for (std::size_t i = req.phases().size(); i-- > 0;) {
    const Phase& phase = req.phases()[i];
    const TimeInterval slot(start, cursor);
    Tick phase_start = cursor;
    std::vector<std::pair<LocatedType, Consumption>> pieces;
    for (const auto& [type, q] : phase.demand.amounts()) {
      auto piece = consume_alap(view.of(type), slot, q);
      if (!piece) return std::nullopt;
      phase_start = std::min(phase_start, piece->boundary);
      pieces.emplace_back(type, std::move(*piece));
    }
    for (auto& [type, piece] : pieces) {
      auto [it, inserted] = plan.usage.emplace(type, piece.usage);
      if (!inserted) it->second.add(piece.usage);
    }
    if (i > 0) plan.cut_points.push_back(phase_start);
    cursor = phase_start;
  }
  if (cursor < start) return std::nullopt;  // cannot happen, but guard
  plan.start = cursor;
  plan.finish = req.window().end();
  std::reverse(plan.cut_points.begin(), plan.cut_points.end());
  return plan;
}

std::optional<ActorPlan> plan_uniform(const ResourceSet& available,
                                      const ComplexRequirement& req) {
  // Slice the window across phases in proportion to total demand (each phase
  // gets at least one tick), then consume eagerly inside each slice.
  const Quantity total = req.total_demand().total();
  const Tick window_len = req.window().length();
  const auto m = static_cast<Tick>(req.phases().size());
  if (m > window_len) return std::nullopt;

  ActorPlan plan;
  plan.actor = req.actor();
  plan.start = req.window().start();
  Tick cursor = req.window().start();
  CappedView view(available, req.window(), req.rate_cap());

  for (std::size_t i = 0; i < req.phases().size(); ++i) {
    const Phase& phase = req.phases()[i];
    Tick slice_len;
    if (i + 1 == req.phases().size()) {
      slice_len = req.window().end() - cursor;  // last slice absorbs rounding
    } else {
      slice_len = total == 0
                      ? window_len / m
                      : (window_len * phase.demand.total()) / total;
      slice_len = std::max<Tick>(slice_len, 1);
      slice_len = std::min(slice_len, req.window().end() - cursor -
                                          static_cast<Tick>(req.phases().size() - i - 1));
      if (slice_len <= 0) return std::nullopt;
    }
    const TimeInterval slot(cursor, cursor + slice_len);
    Tick phase_end = cursor;
    for (const auto& [type, q] : phase.demand.amounts()) {
      auto piece = consume_asap(view.of(type), slot, q);
      if (!piece) return std::nullopt;
      phase_end = std::max(phase_end, piece->boundary);
      auto [it, inserted] = plan.usage.emplace(type, piece->usage);
      if (!inserted) it->second.add(piece->usage);
    }
    if (i + 1 < req.phases().size()) plan.cut_points.push_back(slot.end());
    cursor = slot.end();
  }
  plan.finish = req.phases().empty() ? plan.start : req.window().end();
  return plan;
}

}  // namespace

std::optional<ActorPlan> plan_actor(const ResourceSet& available,
                                    const ComplexRequirement& requirement,
                                    PlanningPolicy policy) {
  if (requirement.phases().empty()) {
    ActorPlan trivial;
    trivial.actor = requirement.actor();
    trivial.start = requirement.window().start();
    trivial.finish = requirement.window().start();
    return trivial;
  }
  switch (policy) {
    case PlanningPolicy::kAsap: return plan_asap(available, requirement);
    case PlanningPolicy::kAlap: return plan_alap(available, requirement);
    case PlanningPolicy::kUniform: return plan_uniform(available, requirement);
  }
  throw std::invalid_argument("invalid PlanningPolicy");
}

std::optional<ConcurrentPlan> plan_concurrent(const ResourceSet& available,
                                              const ConcurrentRequirement& requirement,
                                              PlanningPolicy policy,
                                              const std::vector<std::size_t>& order) {
  std::vector<std::size_t> sequence(requirement.actors().size());
  std::iota(sequence.begin(), sequence.end(), 0);
  if (!order.empty()) {
    if (order.size() != sequence.size()) {
      throw std::invalid_argument("plan_concurrent: order must permute all actors");
    }
    sequence = order;
  }

  ConcurrentPlan plan;
  plan.computation = requirement.name();
  plan.actors.resize(requirement.actors().size());
  plan.finish = requirement.window().start();

  ResourceSet residual = available;
  for (std::size_t idx : sequence) {
    const ComplexRequirement& actor_req = requirement.actors().at(idx);
    auto actor_plan = plan_actor(residual, actor_req, policy);
    if (!actor_plan) return std::nullopt;

    // Subtract this actor's usage before planning the next one.
    ResourceSet used;
    for (const auto& [type, f] : actor_plan->usage) used.add(type, f);
    auto next_residual = residual.relative_complement(used);
    if (!next_residual) {
      throw std::logic_error("planner produced usage exceeding availability");
    }
    residual = std::move(*next_residual);

    plan.finish = std::max(plan.finish, actor_plan->finish);
    plan.actors[idx] = std::move(*actor_plan);
  }
  return plan;
}

}  // namespace rota
