#include "rota/logic/explorer.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <stdexcept>

#include "rota/logic/symbolic/feasibility.hpp"
#include "rota/obs/obs.hpp"

namespace rota {

std::string priority_name(PriorityOrder order) {
  switch (order) {
    case PriorityOrder::kFcfs: return "fcfs";
    case PriorityOrder::kEdf: return "edf";
    case PriorityOrder::kLeastLaxity: return "least-laxity";
    case PriorityOrder::kProportional: return "proportional";
  }
  throw std::invalid_argument("invalid PriorityOrder");
}

namespace {

std::vector<std::size_t> ranked_commitments(const SystemState& state,
                                            PriorityOrder order) {
  std::vector<std::size_t> ranked(state.commitments().size());
  std::iota(ranked.begin(), ranked.end(), 0);
  const Tick now = state.now();
  switch (order) {
    case PriorityOrder::kFcfs:
    case PriorityOrder::kProportional:  // handled by water_fill_labels
      break;
    case PriorityOrder::kEdf:
      std::stable_sort(ranked.begin(), ranked.end(), [&](std::size_t a, std::size_t b) {
        return state.commitments()[a].window.end() < state.commitments()[b].window.end();
      });
      break;
    case PriorityOrder::kLeastLaxity:
      std::stable_sort(ranked.begin(), ranked.end(), [&](std::size_t a, std::size_t b) {
        const auto& pa = state.commitments()[a];
        const auto& pb = state.commitments()[b];
        const Tick la = pa.window.end() - now - pa.remaining_total();
        const Tick lb = pb.window.end() - now - pb.remaining_total();
        return la < lb;
      });
      break;
  }
  return ranked;
}

/// Per-tick scratch reused across ticks: a sorted flat capacity vector (the
/// greedy path's hot lookup) and the label buffer.
struct TickScratch {
  std::vector<std::pair<LocatedType, Rate>> capacity;  // sorted by type
  std::vector<ConsumptionLabel> labels;
};

/// Maximal-consumption labels for one tick under a fixed commitment ranking.
const std::vector<ConsumptionLabel>& greedy_labels(const SystemState& state,
                                                   const std::vector<std::size_t>& ranked,
                                                   TickScratch& scratch) {
  scratch.capacity.clear();
  scratch.labels.clear();
  const Tick now = state.now();

  auto capacity_left = [&](const LocatedType& type) -> Rate& {
    auto it = std::lower_bound(
        scratch.capacity.begin(), scratch.capacity.end(), type,
        [](const std::pair<LocatedType, Rate>& e, const LocatedType& t) {
          return e.first < t;
        });
    if (it == scratch.capacity.end() || !(it->first == type)) {
      it = scratch.capacity.emplace(
          it, type, state.theta().availability(type).value_at(now));
    }
    return it->second;
  };

  for (std::size_t index : ranked) {
    const ActorProgress& p = state.commitments()[index];
    if (!p.active_at(now)) continue;
    for (const auto& [type, q] : p.remaining.amounts()) {
      Rate& cap = capacity_left(type);
      Rate grab = std::min<Rate>(cap, q);
      if (p.rate_cap > 0) grab = std::min(grab, p.rate_cap);
      if (grab <= 0) continue;
      scratch.labels.push_back(ConsumptionLabel{index, type, grab});
      cap -= grab;
    }
  }
  return scratch.labels;
}

}  // namespace

RunResult run_greedy(SystemState start, Tick horizon, PriorityOrder order) {
  ROTA_OBS_SPAN("explorer.run");
  if (obs::metrics_enabled()) {
    obs::CoreMetrics::get().explorer_greedy_runs.add();
  }
  ComputationPath path(std::move(start));
  TickScratch scratch;
  std::map<LocatedType, Rate> capacity_left;  // water-fill scratch
  while (!path.back().all_finished() && path.back().now() < horizon) {
    const std::vector<std::size_t> ranked = ranked_commitments(path.back(), order);
    if (order == PriorityOrder::kProportional) {
      capacity_left.clear();
      path.apply(TickStep{water_fill_labels(path.back(), ranked, capacity_left)});
    } else {
      path.apply(TickStep{greedy_labels(path.back(), ranked, scratch)});
    }
  }

  RunResult result{std::move(path), false, 0};
  const SystemState& tip = result.path.back();
  result.finished_at = tip.now();
  result.all_met = tip.all_finished();
  for (const auto& p : tip.commitments()) {
    if (!p.finished() || *p.finished_at > p.window.end()) {
      result.all_met = false;
    } else {
      result.finished_at = std::max(result.finished_at, *p.finished_at);
    }
  }
  if (tip.commitments().empty()) result.all_met = true;
  return result;
}

std::vector<ConsumptionLabel> water_fill_labels(
    const SystemState& state, const std::vector<std::size_t>& participants,
    std::map<LocatedType, Rate>& capacity_left) {
  const Tick now = state.now();

  // Who wants what this tick, per type, capped by demand and absorption rate.
  struct Claim {
    std::size_t commitment;
    Rate want;
    Rate given = 0;
  };
  std::map<LocatedType, std::vector<Claim>> claims;
  for (std::size_t index : participants) {
    const ActorProgress& p = state.commitments()[index];
    if (!p.active_at(now)) continue;
    for (const auto& [type, q] : p.remaining.amounts()) {
      Rate want = q;
      if (p.rate_cap > 0) want = std::min(want, p.rate_cap);
      if (want > 0) claims[type].push_back(Claim{index, want});
    }
  }

  std::vector<ConsumptionLabel> labels;
  for (auto& [type, list] : claims) {
    // Remainder units go to claimants positionally, so the split must not
    // depend on the caller's participant enumeration order: canonicalize by
    // commitment index before distributing.
    std::sort(list.begin(), list.end(), [](const Claim& a, const Claim& b) {
      return a.commitment < b.commitment;
    });
    auto [it, inserted] = capacity_left.try_emplace(type, 0);
    if (inserted) it->second = state.theta().availability(type).value_at(now);
    Rate& cap = it->second;

    // Water-fill: rounds of equal shares among still-thirsty claimants.
    // Terminates because each productive round strictly reduces cap or the
    // number of thirsty claimants.
    while (cap > 0) {
      std::vector<Claim*> thirsty;
      for (Claim& c : list) {
        if (c.given < c.want) thirsty.push_back(&c);
      }
      if (thirsty.empty()) break;
      const Rate share =
          std::max<Rate>(1, cap / static_cast<Rate>(thirsty.size()));
      bool progressed = false;
      for (Claim* c : thirsty) {
        const Rate grab = std::min({share, c->want - c->given, cap});
        if (grab <= 0) continue;
        c->given += grab;
        cap -= grab;
        progressed = true;
        if (cap == 0) break;
      }
      if (!progressed) break;
    }
    for (const Claim& c : list) {
      if (c.given > 0) labels.push_back(ConsumptionLabel{c.commitment, type, c.given});
    }
  }
  return labels;
}

std::optional<ComputationPath> search_feasible(const SystemState& start, Tick horizon) {
  ROTA_OBS_SPAN("explorer.search_feasible");
  for (PriorityOrder order :
       {PriorityOrder::kEdf, PriorityOrder::kLeastLaxity, PriorityOrder::kFcfs}) {
    RunResult r = run_greedy(start, horizon, order);
    if (r.all_met) return std::move(r.path);
  }
  const FeasibilityResult sym = decide_feasibility(start, horizon);
  if (!sym.feasible()) return std::nullopt;
  // A witness that fails to replay would be an engine bug (the fuzz harness
  // pins exactly this); realize_feasibility reports it as nullopt.
  return realize_feasibility(start, sym);
}

}  // namespace rota
