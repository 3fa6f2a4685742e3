#include "rota/logic/path.hpp"

#include <sstream>

namespace rota {

ComputationPath::ComputationPath(SystemState initial) {
  states_.push_back(std::move(initial));
}

void ComputationPath::apply(const Step& step) {
  SystemState next = states_.back();
  apply_step(next, step);  // throws on rule violation, leaving the path intact
  states_.push_back(std::move(next));
  steps_.push_back(step);
}

std::map<LocatedType, StepFunction> ComputationPath::consumption_profile(
    std::size_t from_index) const {
  // Accumulate per-type per-tick rates, then compress into step functions.
  std::map<LocatedType, std::map<Tick, Rate>> rates;
  for (std::size_t i = from_index; i < steps_.size(); ++i) {
    const auto* tick_step = std::get_if<TickStep>(&steps_[i]);
    if (tick_step == nullptr) continue;
    const Tick t = states_[i].now();  // the tick this step consumed during
    for (const auto& label : tick_step->consumptions) {
      rates[label.type][t] += label.rate;
    }
  }

  std::map<LocatedType, StepFunction> out;
  for (const auto& [type, by_tick] : rates) {
    StepFunction f;
    // Merge runs of equal consecutive rates before delegating to add(): the
    // per-tick map is sorted, so a single linear pass suffices.
    auto it = by_tick.begin();
    while (it != by_tick.end()) {
      const Tick run_start = it->first;
      const Rate rate = it->second;
      Tick run_end = run_start + 1;
      ++it;
      while (it != by_tick.end() && it->first == run_end && it->second == rate) {
        ++run_end;
        ++it;
      }
      f.add(TimeInterval(run_start, run_end), rate);
    }
    out.emplace(type, std::move(f));
  }
  return out;
}

ResourceSet ComputationPath::expiring_resources(std::size_t from_index,
                                                const TimeInterval& window) const {
  const SystemState& origin = states_.at(from_index);

  // Supply visible along the suffix: the origin's Θ (future part) plus any
  // joins applied later on the path, each visible from its join time.
  ResourceSet supply = origin.theta();
  supply.drop_before(origin.now());
  for (std::size_t i = from_index; i < steps_.size(); ++i) {
    const auto* join = std::get_if<JoinStep>(&steps_[i]);
    if (join == nullptr) continue;
    ResourceSet joined = join->joined;
    joined.drop_before(states_[i].now());
    supply.union_with(joined);
  }

  // Remove what the path's commitments consume; the remainder expires.
  const auto consumed = consumption_profile(from_index);
  ResourceSet expiring;
  for (const LocatedType& type : supply.types()) {
    StepFunction residual = supply.availability(type);
    auto it = consumed.find(type);
    if (it != consumed.end()) residual = residual.minus(it->second);
    // Rule validation keeps consumption within supply, so the clamp is a
    // defensive no-op unless a caller mixed paths and states incorrectly.
    residual = residual.clamped_nonnegative().restricted(window);
    for (const auto& seg : residual.segments()) {
      expiring.add(seg.value, seg.interval, type);
    }
  }
  return expiring;
}

std::string ComputationPath::to_string() const {
  std::ostringstream out;
  out << states_.front().to_string();
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    out << "\n  --" << step_to_string(steps_[i]) << "--> " << states_[i + 1].to_string();
  }
  return out.str();
}

}  // namespace rota
