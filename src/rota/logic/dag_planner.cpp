#include "rota/logic/dag_planner.hpp"

#include <algorithm>
#include <stdexcept>

namespace rota {

std::map<LocatedType, StepFunction> InteractingPlan::total_usage() const {
  std::map<LocatedType, StepFunction> out;
  for (const auto& seg : segments) {
    for (const auto& [type, f] : seg.usage) {
      auto [it, inserted] = out.emplace(type, f);
      if (!inserted) it->second.add(f);
    }
  }
  return out;
}

ResourceSet InteractingPlan::usage_as_resources() const {
  ResourceSet out;
  for (const auto& [type, f] : total_usage()) {
    for (const auto& seg : f.segments()) out.add(seg.value, seg.interval, type);
  }
  return out;
}

std::optional<InteractingPlan> plan_dag(const ResourceSet& available,
                                        const DagRequirement& dag) {
  const std::size_t n = dag.nodes.size();

  // Kahn topological order over the waits_for edges.
  std::vector<std::size_t> indegree(n, 0);
  std::vector<std::vector<std::size_t>> dependents(n);
  for (std::size_t i = 0; i < n; ++i) {
    indegree[i] = dag.nodes[i].waits_for.size();
    for (std::size_t dep : dag.nodes[i].waits_for) {
      if (dep >= n) throw std::invalid_argument("plan_dag: dependency out of range");
      dependents[dep].push_back(i);
    }
  }
  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) ready.push_back(i);
  }

  InteractingPlan plan;
  plan.computation = dag.name;
  plan.segments.resize(n);
  plan.finish = dag.window.start();

  std::vector<Tick> finish_time(n, dag.window.start());
  ResourceSet residual = available;
  std::size_t processed = 0;

  while (!ready.empty()) {
    // Earliest-start-first keeps the greedy close to a global ASAP schedule.
    auto it = std::min_element(
        ready.begin(), ready.end(), [&](std::size_t a, std::size_t b) {
          Tick sa = dag.window.start(), sb = dag.window.start();
          for (std::size_t d : dag.nodes[a].waits_for) sa = std::max(sa, finish_time[d]);
          for (std::size_t d : dag.nodes[b].waits_for) sb = std::max(sb, finish_time[d]);
          return sa < sb;
        });
    const std::size_t node = *it;
    ready.erase(it);
    ++processed;

    Tick start = dag.window.start();
    for (std::size_t dep : dag.nodes[node].waits_for) {
      start = std::max(start, finish_time[dep]);
    }
    if (start >= dag.window.end()) return std::nullopt;  // gate past the deadline

    const ComplexRequirement& base = dag.nodes[node].requirement;
    const ComplexRequirement clipped(base.actor(), base.phases(),
                                     TimeInterval(start, dag.window.end()),
                                     base.rate_cap());
    auto seg_plan = plan_actor(residual, clipped, PlanningPolicy::kAsap);
    if (!seg_plan) return std::nullopt;

    ResourceSet used;
    for (const auto& [type, f] : seg_plan->usage) {
      for (const auto& seg : f.segments()) used.add(seg.value, seg.interval, type);
    }
    auto next_residual = residual.relative_complement(used);
    if (!next_residual) {
      throw std::logic_error("plan_dag: planner produced usage exceeding availability");
    }
    residual = std::move(*next_residual);

    SegmentPlan& out = plan.segments[node];
    out.actor_index = dag.nodes[node].actor_index;
    out.segment_index = dag.nodes[node].segment_index;
    out.usage = std::move(seg_plan->usage);
    out.cut_points = std::move(seg_plan->cut_points);
    out.start = start;
    out.finish = seg_plan->finish;
    finish_time[node] = seg_plan->finish;
    plan.finish = std::max(plan.finish, seg_plan->finish);

    for (std::size_t dep : dependents[node]) {
      if (--indegree[dep] == 0) ready.push_back(dep);
    }
  }

  if (processed != n) {
    // Unreachable for validated InteractingComputations (cycles rejected at
    // construction), but hand-built DagRequirements can be cyclic.
    return std::nullopt;
  }
  return plan;
}

std::optional<InteractingPlan> plan_interacting(
    const ResourceSet& available, const CostModel& phi,
    const InteractingComputation& computation) {
  return plan_dag(available, make_dag_requirement(phi, computation));
}

ComputationPath realize_interacting_plan(const ResourceSet& theta,
                                         const DagRequirement& dag,
                                         const InteractingPlan& plan,
                                         Tick start_time) {
  if (plan.segments.size() != dag.nodes.size()) {
    throw std::logic_error("realize_interacting_plan: plan does not match DAG arity");
  }
  // One commitment per segment, windowed at the segment's planned start so
  // premature consumption (before the gate releases) trips rule validation.
  std::vector<ComplexRequirement> as_actors;
  as_actors.reserve(dag.nodes.size());
  for (std::size_t i = 0; i < dag.nodes.size(); ++i) {
    const ComplexRequirement& base = dag.nodes[i].requirement;
    as_actors.emplace_back(base.actor(), base.phases(),
                           TimeInterval(plan.segments[i].start, dag.window.end()),
                           base.rate_cap());
  }
  const ConcurrentRequirement rho(dag.name, std::move(as_actors), dag.window);

  ComputationPath path(SystemState(theta, start_time));
  path.apply(AccommodateStep{rho});

  const Tick end = std::max(plan.finish, start_time);
  for (Tick t = start_time; t < end; ++t) {
    std::vector<ConsumptionLabel> labels;
    for (std::size_t i = 0; i < plan.segments.size(); ++i) {
      for (const auto& [type, f] : plan.segments[i].usage) {
        const Rate r = f.value_at(t);
        if (r > 0) labels.push_back(ConsumptionLabel{i, type, r});
      }
    }
    path.apply(TickStep{std::move(labels)});
  }
  if (!path.back().all_finished()) {
    throw std::logic_error("realize_interacting_plan: plan did not drain the DAG");
  }
  return path;
}

}  // namespace rota
