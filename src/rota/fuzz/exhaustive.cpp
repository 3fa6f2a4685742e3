#include "rota/fuzz/exhaustive.hpp"

#include <algorithm>
#include <numeric>
#include <set>
#include <vector>

#include "rota/logic/explorer.hpp"

namespace rota::fuzz {

namespace {

struct Split {
  std::size_t commitment = 0;
  LocatedType type;
  Rate give = 0;
};

struct Ctx {
  Tick horizon = 0;
  std::uint64_t budget = 0;
  std::uint64_t nodes = 0;
  bool exhausted = false;
  std::set<std::vector<std::int64_t>> failed;  // states proven infeasible
};

/// (now, per commitment: phase_index then per-type remainder in the phase's
/// canonical demand order). Θ evolves deterministically with `now` (supply
/// only expires), so it is implied and omitted.
std::vector<std::int64_t> signature(const SystemState& s) {
  std::vector<std::int64_t> sig;
  sig.push_back(s.now());
  for (const auto& p : s.commitments()) {
    sig.push_back(static_cast<std::int64_t>(p.phase_index));
    if (!p.finished()) {
      for (const auto& [type, q] : p.phases[p.phase_index].demand.amounts()) {
        sig.push_back(p.remaining.of(type));
      }
    }
    sig.push_back(-1);
  }
  return sig;
}

bool hopeless(const SystemState& s) {
  for (const auto& p : s.commitments()) {
    if (p.missed_by(s.now())) return true;
    if (p.finished() && p.finished_at && *p.finished_at > p.window.end()) {
      return true;
    }
  }
  return false;
}

/// All ways to hand `target` units of one type to `claimants` (each capped by
/// its appetite), appended to `out` as per-claimant grant vectors.
void enumerate_splits(const std::vector<std::pair<std::size_t, Rate>>& claimants,
                      std::size_t k, Rate target, std::vector<Rate>& grants,
                      std::vector<std::vector<Rate>>& out) {
  if (k == claimants.size()) {
    if (target == 0) out.push_back(grants);
    return;
  }
  Rate tail = 0;
  for (std::size_t j = k + 1; j < claimants.size(); ++j) {
    tail += claimants[j].second;
  }
  const Rate lo = std::max<Rate>(0, target - tail);
  const Rate hi = std::min(claimants[k].second, target);
  for (Rate g = lo; g <= hi; ++g) {
    grants[k] = g;
    enumerate_splits(claimants, k + 1, target - g, grants, out);
  }
  grants[k] = 0;
}

bool feasible(Ctx& ctx, const SystemState& s);

/// Cartesian product across types of the per-type maximal splits; recurses
/// into the next tick for each combination.
bool expand(Ctx& ctx, const SystemState& s,
            const std::vector<std::pair<LocatedType,
                                        std::vector<std::vector<Split>>>>& by_type,
            std::size_t ti, std::vector<ConsumptionLabel>& labels) {
  if (ctx.exhausted) return false;
  if (ti == by_type.size()) {
    SystemState next = s;
    next.advance(labels);
    if (hopeless(next)) return false;
    return feasible(ctx, next);
  }
  for (const auto& option : by_type[ti].second) {
    const std::size_t before = labels.size();
    for (const Split& sp : option) {
      if (sp.give > 0) {
        labels.push_back(ConsumptionLabel{sp.commitment, sp.type, sp.give});
      }
    }
    if (expand(ctx, s, by_type, ti + 1, labels)) return true;
    labels.resize(before);
    if (ctx.exhausted) return false;
  }
  return false;
}

bool feasible(Ctx& ctx, const SystemState& s) {
  if (s.all_finished()) return true;
  if (s.now() >= ctx.horizon) return false;
  if (++ctx.nodes > ctx.budget) {
    ctx.exhausted = true;
    return false;
  }
  const std::vector<std::int64_t> sig = signature(s);
  if (ctx.failed.contains(sig)) return false;

  // Per type: every maximal split of this tick's availability across the
  // commitments that can absorb it now.
  std::vector<std::pair<LocatedType, std::vector<std::vector<Split>>>> by_type;
  std::set<LocatedType> types;
  for (const auto& p : s.commitments()) {
    if (!p.active_at(s.now()) || p.finished()) continue;
    for (const auto& [type, q] : p.remaining.amounts()) {
      if (q > 0) types.insert(type);
    }
  }
  for (const LocatedType& type : types) {
    const Rate avail =
        std::max<Rate>(0, s.theta().availability(type).value_at(s.now()));
    if (avail <= 0) continue;
    std::vector<std::pair<std::size_t, Rate>> claimants;  // (commitment, want)
    Rate appetite = 0;
    for (std::size_t i = 0; i < s.commitments().size(); ++i) {
      const auto& p = s.commitments()[i];
      if (!p.active_at(s.now()) || p.finished()) continue;
      Rate want = p.remaining.of(type);
      if (p.rate_cap > 0) want = std::min(want, p.rate_cap);
      if (want > 0) {
        claimants.emplace_back(i, want);
        appetite += want;
      }
    }
    if (claimants.empty()) continue;
    const Rate target = std::min(avail, appetite);
    std::vector<std::vector<Rate>> grant_vectors;
    std::vector<Rate> grants(claimants.size(), 0);
    enumerate_splits(claimants, 0, target, grants, grant_vectors);
    std::vector<std::vector<Split>> options;
    options.reserve(grant_vectors.size());
    for (const auto& gv : grant_vectors) {
      std::vector<Split> option;
      for (std::size_t k = 0; k < claimants.size(); ++k) {
        option.push_back(Split{claimants[k].first, type, gv[k]});
      }
      options.push_back(std::move(option));
    }
    by_type.emplace_back(type, std::move(options));
  }

  std::vector<ConsumptionLabel> labels;
  if (expand(ctx, s, by_type, 0, labels)) return true;
  if (!ctx.exhausted) ctx.failed.insert(sig);
  return false;
}

}  // namespace

std::optional<SweepResult> static_order_sweep(
    const ResourceSet& supply, const std::vector<ComplexRequirement>& actors,
    Tick horizon) {
  if (actors.size() > kMaxSweepActors) return std::nullopt;
  SweepResult result;
  std::vector<std::size_t> order(actors.size());
  std::iota(order.begin(), order.end(), 0);
  do {
    ++result.permutations;
    std::vector<ComplexRequirement> ranked;
    ranked.reserve(order.size());
    for (const std::size_t i : order) ranked.push_back(actors[i]);
    SystemState start(supply, 0);
    if (!ranked.empty()) {
      start.accommodate(ConcurrentRequirement("sweep", std::move(ranked),
                                              TimeInterval(0, horizon)));
    }
    RunResult run = run_greedy(std::move(start), horizon, PriorityOrder::kFcfs);
    if (run.all_met) {
      result.path = std::move(run.path);
      break;
    }
  } while (std::next_permutation(order.begin(), order.end()));
  return result;
}

std::optional<bool> exhaustive_feasible(const SystemState& start, Tick horizon,
                                        std::uint64_t node_budget) {
  std::size_t unfinished = 0;
  for (const auto& p : start.commitments()) {
    if (!p.finished()) ++unfinished;
  }
  if (unfinished > 3) return std::nullopt;
  if (hopeless(start)) return false;
  Ctx ctx;
  ctx.horizon = horizon;
  ctx.budget = node_budget;
  const bool ok = feasible(ctx, start);
  if (!ok && ctx.exhausted) return std::nullopt;
  return ok;
}

}  // namespace rota::fuzz
