#include "rota/logic/symbolic/feasibility.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>

#include "rota/logic/symbolic/flow.hpp"

namespace rota {

std::string feasibility_verdict_name(FeasibilityVerdict verdict) {
  switch (verdict) {
    case FeasibilityVerdict::kFeasible: return "feasible";
    case FeasibilityVerdict::kInfeasible: return "infeasible";
    case FeasibilityVerdict::kUnknown: return "unknown";
  }
  return "?";
}

namespace {

/// One pending phase of one unfinished commitment, flattened. `lo`/`hi` are
/// the relaxed ASAP/ALAP hull [e_i, l_{i+1}); the DFS narrows an actor's
/// phases to exact [c_i, c_{i+1}) windows as its boundaries are placed.
struct PhaseVar {
  std::size_t actor = 0;           // index into ActorVars
  std::size_t index = 0;           // position among the actor's pending phases
  const DemandSet* demand = nullptr;
  Tick lo = 0;
  Tick hi = 0;
};

struct ActorVar {
  std::size_t commitment = 0;  // index into start.commitments()
  Tick release = 0;            // max(now, window.start)
  Tick deadline = 0;           // min(window.end, horizon)
  Rate rate_cap = 0;           // 0 = unbounded
  std::vector<std::size_t> phases;  // indices into the flat phase list
  std::vector<const DemandSet*> pending;
  std::vector<Tick> earliest;  // e_0 … e_m (boundary lower bounds)
  std::vector<Tick> latest;    // l_0 … l_m (boundary upper bounds)
  std::vector<Tick> cuts;      // c_0 … c_fixed as placed (c_m = deadline)
  // Boundaries placed: c_0 … c_fixed are fixed; 0 = none searched yet,
  // m = every boundary fixed (the actor is assigned).
  std::size_t fixed = 0;
  // availability min'd with the commitment's rate cap, per demanded type,
  // restricted to [release, deadline)
  std::vector<std::pair<LocatedType, StepFunction>> capped;

  const StepFunction& capped_for(const LocatedType& type) const {
    for (const auto& [t, f] : capped) {
      if (t == type) return f;
    }
    throw std::logic_error("symbolic: no capped profile for type");
  }
};

struct Encoding {
  Tick now = 0;
  Tick end = 0;  // max deadline; ticks span [now, end)
  std::vector<ActorVar> actors;
  std::vector<PhaseVar> phases;
  // per located type, availability at each tick in [now, end), sorted by type
  // so flow construction (and hence witnesses) is deterministic
  std::vector<std::pair<LocatedType, std::vector<Rate>>> supply;
};

/// One located type's transportation check: the phases demanding it (fixed
/// per instance) and the verdict of its last check, keyed by the windows
/// those phases had then. A check whose windows did not move reuses it.
struct TypeFlow {
  std::vector<std::pair<std::size_t, Quantity>> want;  // (phase idx, q)
  Quantity total = 0;
  std::vector<Tick> windows;  // lo, hi per `want` entry at the last check
  bool feasible = false;
};

struct Search {
  explicit Search(const FeasibilityOptions& opts) : options(opts) {}

  const FeasibilityOptions& options;
  Encoding enc;
  FeasibilityStats stats;
  bool exhausted = false;
  std::vector<TypeFlow> flows;  // parallel to enc.supply
  std::vector<Tick> windows;    // scratch key of the check in progress
  symbolic::MaxFlow mf;         // reset and rebuilt per type check

  /// Collects, per supplied type, the phases that demand it.
  void index_flows() {
    flows.resize(enc.supply.size());
    for (std::size_t ti = 0; ti < enc.supply.size(); ++ti) {
      for (std::size_t pi = 0; pi < enc.phases.size(); ++pi) {
        const Quantity q = enc.phases[pi].demand->of(enc.supply[ti].first);
        if (q > 0) {
          flows[ti].want.emplace_back(pi, q);
          flows[ti].total += q;
        }
      }
    }
  }

  /// Window phase `p` may consume in under the current partial assignment:
  /// exact [c_i, c_{i+1}) below the actor's last placed boundary c_f, and
  /// [max(c_f, e_i), l_{i+1}) from it on — which contains every window a
  /// completion of the partial assignment can give the phase.
  std::pair<Tick, Tick> phase_window(const PhaseVar& p) const {
    const ActorVar& a = enc.actors[p.actor];
    if (p.index < a.fixed) return {a.cuts[p.index], a.cuts[p.index + 1]};
    if (a.fixed == 0) return {p.lo, p.hi};
    return {std::max(p.lo, a.cuts[a.fixed]), p.hi};
  }

  /// Per-type transportation relaxation. Exact when every actor is assigned.
  /// With `schedule` non-null (all-assigned only), decomposes the saturating
  /// flow into per-tick witness labels.
  bool flow_feasible(std::vector<std::vector<ConsumptionLabel>>* schedule) {
    ++stats.flow_checks;
    for (std::size_t ti = 0; ti < flows.size(); ++ti) {
      TypeFlow& tf = flows[ti];
      if (tf.total == 0) continue;
      windows.clear();
      for (const auto& [pi, q] : tf.want) {
        const auto [w_lo, w_hi] = phase_window(enc.phases[pi]);
        windows.push_back(w_lo);
        windows.push_back(w_hi);
      }
      if (schedule == nullptr && !tf.windows.empty() && windows == tf.windows) {
        if (!tf.feasible) return false;
        continue;
      }
      tf.windows = windows;
      tf.feasible = type_feasible(ti, windows, schedule);
      if (!tf.feasible) return false;
    }
    return true;
  }

  /// One type's transportation problem; `w` holds lo, hi per demanding phase.
  bool type_feasible(std::size_t ti, const std::vector<Tick>& w,
                     std::vector<std::vector<ConsumptionLabel>>* schedule) {
    const auto& [type, avail] = enc.supply[ti];
    const TypeFlow& tf = flows[ti];
    const std::size_t ticks = static_cast<std::size_t>(enc.end - enc.now);
    // nodes: 0 = source, 1..ticks = supply ticks, then phases, then sink
    const std::size_t sink = 1 + ticks + tf.want.size();
    mf.reset(sink + 1);
    for (std::size_t k = 0; k < ticks; ++k) {
      if (avail[k] > 0) mf.add_edge(0, 1 + k, avail[k]);
    }
    struct TickEdge {
      Tick tick;
      std::size_t phase;
      std::size_t edge;
    };
    std::vector<TickEdge> tick_edges;
    for (std::size_t j = 0; j < tf.want.size(); ++j) {
      const auto& [pi, q] = tf.want[j];
      const ActorVar& a = enc.actors[enc.phases[pi].actor];
      const Rate cap = a.rate_cap > 0 ? a.rate_cap : q;
      for (Tick t = w[2 * j]; t < w[2 * j + 1]; ++t) {
        const std::size_t k = static_cast<std::size_t>(t - enc.now);
        if (avail[k] <= 0) continue;
        const std::size_t id = mf.add_edge(1 + k, 1 + ticks + j, cap);
        if (schedule != nullptr) tick_edges.push_back({t, pi, id});
      }
      mf.add_edge(1 + ticks + j, sink, q);
    }
    if (mf.solve(0, sink) < tf.total) return false;
    if (schedule != nullptr) {
      for (const TickEdge& te : tick_edges) {
        const std::int64_t f = mf.flow_on(te.edge);
        if (f <= 0) continue;
        const PhaseVar& p = enc.phases[te.phase];
        (*schedule)[static_cast<std::size_t>(te.tick - enc.now)].push_back(
            ConsumptionLabel{enc.actors[p.actor].commitment, type, f});
      }
    }
    return true;
  }

  /// DFS over actors in index order; each actor's interior boundaries are
  /// enumerated ascending, so the first witness found is deterministic.
  bool search(std::size_t ai) {
    if (ai == enc.actors.size()) return true;
    return assign_boundary(ai, 1);
  }

  bool assign_boundary(std::size_t ai, std::size_t b) {
    ActorVar& a = enc.actors[ai];
    const std::size_t m = a.phases.size();
    if (b == 1) {
      a.cuts.assign(m + 1, 0);
      a.cuts[0] = a.release;
      a.cuts[m] = a.deadline;
    }
    if (b == m) {
      // Per-actor coverage of every phase is guaranteed by construction (the
      // enumeration lower bound covers phases 0..m-2, the ALAP bound on
      // c_{m-1} covers the last); what is left is cross-actor contention,
      // which the relaxation checks (exactly, once every actor is assigned).
      a.fixed = m;
      if (flow_feasible(nullptr) && search(ai + 1)) return true;
      a.fixed = m - 1;
      return false;
    }
    // Earliest completion of phase b-1 when it starts at cuts[b-1]: the
    // boundary after it can come no sooner.
    Tick lb = std::max(a.cuts[b - 1], a.earliest[b]);
    for (const auto& [type, q] : a.pending[b - 1]->amounts()) {
      const auto t = a.capped_for(type).earliest_cover(
          TimeInterval(a.cuts[b - 1], a.deadline), q);
      if (!t) return false;
      lb = std::max(lb, *t);
    }
    for (Tick c = lb; c <= a.latest[b]; ++c) {
      if (++stats.nodes > options.node_budget) {
        exhausted = true;
        return false;
      }
      a.cuts[b] = c;
      a.fixed = b;
      // Prune between boundaries: phases before b now have exact windows,
      // the rest their narrowed hulls. A failed relaxation means no
      // completion of this prefix exists, so skipping it keeps the DFS order
      // and the first witness. (At b = m-1 the next level's check is the
      // same one, exact for this actor.)
      if (b + 1 < m && !flow_feasible(nullptr)) continue;
      if (assign_boundary(ai, b + 1)) return true;
      if (exhausted) return false;
    }
    a.fixed = b - 1;
    return false;
  }
};

}  // namespace

FeasibilityResult decide_feasibility(const SystemState& start, Tick horizon,
                                     const FeasibilityOptions& options) {
  FeasibilityResult result;
  result.boundaries.resize(start.commitments().size());

  // A commitment that already finished past its deadline keeps the explorer's
  // all_met false forever; no future schedule can repair it.
  for (const auto& p : start.commitments()) {
    if (p.finished() && p.finished_at && *p.finished_at > p.window.end()) {
      result.verdict = FeasibilityVerdict::kInfeasible;
      return result;
    }
  }

  Search s(options);
  Encoding& enc = s.enc;
  enc.now = start.now();
  enc.end = enc.now;

  for (std::size_t c = 0; c < start.commitments().size(); ++c) {
    const ActorProgress& p = start.commitments()[c];
    if (p.finished()) continue;
    ActorVar a;
    a.commitment = c;
    a.release = std::max(enc.now, p.window.start());
    a.deadline = std::min(p.window.end(), horizon);
    a.rate_cap = p.rate_cap;
    if (a.release >= a.deadline) {
      result.verdict = FeasibilityVerdict::kInfeasible;
      return result;
    }
    // Pending demands: the current phase's remainder, then the untouched
    // tail. Empty *later* phases auto-promote inside advance() and need no
    // window; an empty *current* remainder on an unfinished commitment can
    // never promote (promotion only happens under consumption), so the
    // commitment can never finish.
    if (p.remaining.empty()) {
      result.verdict = FeasibilityVerdict::kInfeasible;
      return result;
    }
    a.pending.push_back(&p.remaining);
    for (std::size_t i = p.phase_index + 1; i < p.phases.size(); ++i) {
      if (!p.phases[i].demand.empty()) a.pending.push_back(&p.phases[i].demand);
    }
    // Per-type availability clamped by the commitment's absorption cap: the
    // most this commitment could draw at each tick, the basis for its
    // ASAP/ALAP boundary bounds.
    const TimeInterval span(a.release, a.deadline);
    for (const DemandSet* ds : a.pending) {
      for (const auto& [type, q] : ds->amounts()) {
        const bool seen =
            std::any_of(a.capped.begin(), a.capped.end(),
                        [&](const auto& kv) { return kv.first == type; });
        if (seen) continue;
        // clamped: joins can leave locally negative availability, which must
        // read as "nothing to draw", not as negative cover.
        StepFunction f =
            start.theta().availability(type).restricted(span).clamped_nonnegative();
        if (a.rate_cap > 0) f = f.min(StepFunction(span, a.rate_cap));
        a.capped.emplace_back(type, std::move(f));
      }
    }
    // ASAP pass: e_{i+1} = earliest tick by which phase i can complete when
    // everything before it ran as early as possible.
    const std::size_t m = a.pending.size();
    a.earliest.assign(m + 1, a.release);
    for (std::size_t i = 0; i < m; ++i) {
      Tick next = a.earliest[i];
      for (const auto& [type, q] : a.pending[i]->amounts()) {
        const auto t = a.capped_for(type).earliest_cover(
            TimeInterval(a.earliest[i], a.deadline), q);
        if (!t) {
          result.verdict = FeasibilityVerdict::kInfeasible;
          return result;
        }
        next = std::max(next, *t);
      }
      a.earliest[i + 1] = next;
    }
    // ALAP pass: l_i = latest boundary from which the suffix still fits.
    a.latest.assign(m + 1, a.deadline);
    for (std::size_t i = m; i-- > 0;) {
      Tick prev = a.latest[i + 1];
      for (const auto& [type, q] : a.pending[i]->amounts()) {
        const auto t = a.capped_for(type).latest_cover_start(
            TimeInterval(a.release, a.latest[i + 1]), q);
        if (!t) {
          result.verdict = FeasibilityVerdict::kInfeasible;
          return result;
        }
        prev = std::min(prev, *t);
      }
      a.latest[i] = prev;
    }
    for (std::size_t i = 0; i <= m; ++i) {
      if (a.earliest[i] > a.latest[i]) {
        result.verdict = FeasibilityVerdict::kInfeasible;
        return result;
      }
    }
    s.stats.free_cuts += m - 1;
    enc.end = std::max(enc.end, a.deadline);
    enc.actors.push_back(std::move(a));
  }

  if (enc.actors.empty()) {
    result.verdict = FeasibilityVerdict::kFeasible;
    return result;
  }
  result.stats = s.stats;
  result.stats.ticks = enc.end - enc.now;
  if (enc.end - enc.now > options.max_ticks) {
    result.verdict = FeasibilityVerdict::kUnknown;
    return result;
  }

  // Flatten phases (actor-major, phase order) and collect per-tick supply for
  // every demanded type, sorted by type for determinism.
  for (std::size_t ai = 0; ai < enc.actors.size(); ++ai) {
    ActorVar& a = enc.actors[ai];
    for (std::size_t i = 0; i < a.pending.size(); ++i) {
      a.phases.push_back(enc.phases.size());
      enc.phases.push_back(PhaseVar{ai, i, a.pending[i],
                                    a.earliest[i], a.latest[i + 1]});
    }
  }
  {
    std::map<LocatedType, std::vector<Rate>> supply;
    const std::size_t ticks = static_cast<std::size_t>(enc.end - enc.now);
    for (const PhaseVar& p : enc.phases) {
      for (const auto& [type, q] : p.demand->amounts()) {
        auto [it, inserted] = supply.try_emplace(type);
        if (!inserted) continue;
        it->second.resize(ticks);
        const StepFunction& f = start.theta().availability(type);
        for (std::size_t k = 0; k < ticks; ++k) {
          it->second[k] = std::max<Rate>(0, f.value_at(enc.now + static_cast<Tick>(k)));
        }
      }
    }
    enc.supply.assign(supply.begin(), supply.end());
  }
  s.index_flows();

  // All-relaxed root check: if even the boundary hulls cannot transport the
  // demand, the instance is infeasible without any search.
  if (!s.flow_feasible(nullptr)) {
    result.verdict = FeasibilityVerdict::kInfeasible;
    result.stats = s.stats;
    result.stats.ticks = enc.end - enc.now;
    return result;
  }

  const bool found = s.search(0);
  result.stats = s.stats;
  result.stats.ticks = enc.end - enc.now;
  if (!found) {
    result.verdict = s.exhausted ? FeasibilityVerdict::kUnknown
                                 : FeasibilityVerdict::kInfeasible;
    return result;
  }

  // Every actor is assigned: re-solve the (now exact) flows and decompose
  // into the witness schedule.
  std::vector<std::vector<ConsumptionLabel>> schedule(
      static_cast<std::size_t>(enc.end - enc.now));
  if (!s.flow_feasible(&schedule)) {
    // The last in-search check passed with identical windows; disagreement
    // here would be a solver bug.
    throw std::logic_error("symbolic: witness flow disagreed with search");
  }
  while (!schedule.empty() && schedule.back().empty()) schedule.pop_back();
  result.schedule = std::move(schedule);
  for (const ActorVar& a : enc.actors) {
    result.boundaries[a.commitment] = a.cuts;
  }
  result.verdict = FeasibilityVerdict::kFeasible;
  return result;
}

std::optional<ComputationPath> realize_feasibility(const SystemState& start,
                                                   const FeasibilityResult& result) {
  if (!result.feasible()) return std::nullopt;
  ComputationPath path(start);
  try {
    for (const auto& labels : result.schedule) {
      path.apply(TickStep{labels});
    }
  } catch (const std::logic_error&) {
    return std::nullopt;
  }
  const SystemState& tip = path.back();
  if (!tip.all_finished()) return std::nullopt;
  for (const ActorProgress& p : tip.commitments()) {
    if (p.finished_at && *p.finished_at > p.window.end()) return std::nullopt;
  }
  return path;
}

std::optional<ComputationPath> feasibility_witness_path(
    const SystemState& start, Tick horizon, const FeasibilityOptions& options) {
  return realize_feasibility(start, decide_feasibility(start, horizon, options));
}

std::optional<ConcurrentPlan> symbolic_concurrent_plan(
    const ResourceSet& available, const ConcurrentRequirement& rho, Tick now,
    const FeasibilityOptions& options, FeasibilityVerdict* verdict) {
  if (verdict != nullptr) *verdict = FeasibilityVerdict::kInfeasible;
  if (now >= rho.window().end()) return std::nullopt;
  SystemState probe(available, now);
  try {
    probe.accommodate(rho);
  } catch (const std::logic_error&) {
    return std::nullopt;
  }
  const FeasibilityResult result =
      decide_feasibility(probe, rho.window().end(), options);
  if (verdict != nullptr) *verdict = result.verdict;
  if (!result.feasible()) return std::nullopt;

  ConcurrentPlan plan;
  plan.computation = rho.name();
  plan.actors.resize(rho.actors().size());
  plan.finish = now;
  std::vector<Tick> finishes(rho.actors().size(), now);
  for (std::size_t i = 0; i < rho.actors().size(); ++i) {
    ActorPlan& ap = plan.actors[i];
    ap.actor = rho.actors()[i].actor();
    const auto& cuts = result.boundaries[i];
    ap.start = cuts.empty() ? now : cuts.front();
    finishes[i] = ap.start;
    if (cuts.size() > 2) {
      ap.cut_points.assign(cuts.begin() + 1, cuts.end() - 1);
    }
  }
  for (std::size_t k = 0; k < result.schedule.size(); ++k) {
    const Tick t = now + static_cast<Tick>(k);
    for (const ConsumptionLabel& label : result.schedule[k]) {
      ActorPlan& ap = plan.actors[label.commitment];
      ap.usage[label.type].add(TimeInterval(t, t + 1), label.rate);
      finishes[label.commitment] = std::max(finishes[label.commitment], t + 1);
    }
  }
  for (std::size_t i = 0; i < plan.actors.size(); ++i) {
    plan.actors[i].finish = finishes[i];
    plan.finish = std::max(plan.finish, finishes[i]);
  }
  return plan;
}

}  // namespace rota
