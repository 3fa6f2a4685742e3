#include "rota/cluster/cluster.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "rota/obs/obs.hpp"

namespace rota::cluster {

std::size_t ClusterReport::accepted(Placement kind) const {
  return static_cast<std::size_t>(
      std::count_if(decisions.begin(), decisions.end(),
                    [kind](const JobDecision& d) { return d.outcome == kind; }));
}

std::size_t ClusterReport::accepted_total() const {
  return accepted(Placement::kLocal) + accepted(Placement::kRemote);
}

std::size_t ClusterReport::rejected() const {
  return accepted(Placement::kRejected);
}

std::size_t ClusterReport::lost() const {
  return static_cast<std::size_t>(
      std::count_if(decisions.begin(), decisions.end(),
                    [](const JobDecision& d) { return d.lost; }));
}

double ClusterReport::deadline_hit_rate() const {
  if (decisions.empty()) return 1.0;
  std::size_t hit = 0;
  for (const JobDecision& d : decisions) {
    if (d.outcome != Placement::kRejected && !d.lost) ++hit;
  }
  return static_cast<double>(hit) / static_cast<double>(decisions.size());
}

double ClusterReport::forwarded_fraction() const {
  const std::size_t total = accepted_total();
  if (total == 0) return 0.0;
  return static_cast<double>(accepted(Placement::kRemote)) /
         static_cast<double>(total);
}

double ClusterReport::root_hit_rate() const {
  if (decisions.empty()) return 1.0;
  std::map<std::uint64_t, bool> hit_by_root;
  for (const JobDecision& d : decisions) {
    const auto it = retry_root.find(d.id);
    const std::uint64_t root = it == retry_root.end() ? d.id : it->second;
    bool& hit = hit_by_root[root];
    hit = hit || (d.outcome != Placement::kRejected && !d.lost);
  }
  std::size_t hits = 0;
  for (const auto& [root, hit] : hit_by_root) {
    (void)root;
    if (hit) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(hit_by_root.size());
}

std::string ClusterReport::decision_log() const {
  std::ostringstream out;
  for (const JobDecision& d : decisions) out << d.to_string() << '\n';
  return out.str();
}

std::string decision_digest(const std::string& decision_log) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : decision_log) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

void ClusterReport::schedule_into(Simulator& sim) const {
  for (const PlacedAdmission& p : placements) {
    if (p.lost) continue;
    sim.schedule_admission(p.at, p.rho, p.plan);
  }
}

ClusterSim::ClusterSim(CostModel phi, ClusterConfig config)
    : phi_(std::move(phi)),
      config_(config),
      fabric_(0, config.seed, config.default_link) {}

NodeId ClusterSim::add_node(Location site, ResourceSet supply) {
  return add_node(site, std::move(supply), config_.node);
}

NodeId ClusterSim::add_node(Location site, ResourceSet supply,
                            NodeConfig node_config) {
  if (ran_) throw std::logic_error("cluster already ran");
  const NodeId id = static_cast<NodeId>(nodes_.size());
  fabric_.add_node();
  supplies_.push_back(supply);
  transports_.push_back(std::make_unique<FabricTransport>(&fabric_, id));
  nodes_.push_back(std::make_unique<ClusterNode>(
      id, site, phi_, std::move(supply), node_config, events_.get(),
      transports_.back().get()));
  outages_.emplace_back();
  for (NodeId peer = 0; peer < id; ++peer) {
    nodes_[peer]->set_peer(id, fabric_.link(peer, id).latency);
    nodes_[id]->set_peer(peer, fabric_.link(id, peer).latency);
  }
  return id;
}

void ClusterSim::set_link(NodeId a, NodeId b, LinkParams params) {
  fabric_.set_link(a, b, params);
  fabric_.set_link(b, a, params);
  nodes_.at(a)->set_peer(b, params.latency);
  nodes_.at(b)->set_peer(a, params.latency);
}

std::uint64_t ClusterSim::submit(Tick at, NodeId origin, WorkSpec work) {
  if (origin >= nodes_.size()) throw std::out_of_range("unknown origin node");
  const std::uint64_t id = next_job_id_++;
  arrivals_.push_back(ClusterArrival{at, origin, ClusterJob{id, std::move(work)}});
  return id;
}

void ClusterSim::schedule_crash(Tick at, NodeId node) {
  faults_.push_back(Fault{at, Fault::Kind::kCrash, node, kNoNode, false});
}

void ClusterSim::schedule_restart(Tick at, NodeId node, bool recover) {
  faults_.push_back(Fault{at, Fault::Kind::kRestart, node, kNoNode, recover});
}

void ClusterSim::schedule_partition(Tick at, NodeId a, NodeId b) {
  faults_.push_back(Fault{at, Fault::Kind::kPartition, a, b, false});
}

void ClusterSim::schedule_heal(Tick at, NodeId a, NodeId b) {
  faults_.push_back(Fault{at, Fault::Kind::kHeal, a, b, false});
}

void ClusterSim::apply(const faults::FaultSchedule& schedule) {
  schedule.validate(nodes_.size());
  for (const faults::FaultEvent& e : schedule.events()) {
    switch (e.kind) {
      case faults::FaultEvent::Kind::kCrash:
        schedule_crash(e.at, e.a);
        break;
      case faults::FaultEvent::Kind::kRestart:
        schedule_restart(e.at, e.a, e.recover);
        break;
      case faults::FaultEvent::Kind::kPartition:
        schedule_partition(e.at, e.a, e.b);
        break;
      case faults::FaultEvent::Kind::kHeal:
        schedule_heal(e.at, e.a, e.b);
        break;
    }
  }
}

void ClusterSim::set_retry_policy(const faults::RetryPolicy& policy,
                                  std::uint64_t seed) {
  if (ran_) throw std::logic_error("cluster already ran");
  retries_enabled_ = true;
  retry_policy_ = policy;
  retry_rng_ = util::Rng(seed);
}

void ClusterSim::apply_faults(Tick now) {
  for (const Fault& f : faults_) {
    if (f.at != now) continue;
    switch (f.kind) {
      case Fault::Kind::kCrash:
        if (!nodes_[f.a]->down()) {
          nodes_[f.a]->crash(now);
          fabric_.set_down(f.a, true);
          outages_[f.a].emplace_back(now, kTickMax, false);
        }
        break;
      case Fault::Kind::kRestart:
        if (nodes_[f.a]->down()) {
          nodes_[f.a]->restart(now, f.recover);
          fabric_.set_down(f.a, false);
          auto& [crash_at, restart_at, recovered] = outages_[f.a].back();
          restart_at = now;
          recovered = f.recover;
        }
        break;
      case Fault::Kind::kPartition:
        fabric_.partition(f.a, f.b);
        break;
      case Fault::Kind::kHeal:
        fabric_.heal(f.a, f.b);
        break;
    }
  }
}

void ClusterSim::mark_lost() {
  // A placement dies with its node: a crash after admission and before the
  // planned finish destroys it unless the restart replayed the audit log.
  // Strictly-after comparison on the admission tick: faults apply at tick
  // start, so a placement stamped `at == crash_at` can only exist when the
  // node crashed and restarted earlier that same tick — the admission
  // happened on the *post-restart* ledger and only a later crash can
  // destroy it. (`>=` here once lost such same-tick-bounce placements; the
  // cluster fuzz family's independent loss referee caught it.)
  for (PlacedAdmission& p : events_->placements) {
    for (const auto& [crash_at, restart_at, recovered] : outages_[p.node]) {
      (void)restart_at;
      if (!recovered && crash_at > p.at && crash_at < p.plan.finish) {
        p.lost = true;
        break;
      }
    }
  }
  // Decisions inherit loss from the placement that backs them (matched by
  // job id + node; orphan placements from lost claim-acks back no decision).
  for (JobDecision& d : events_->decisions) {
    if (d.outcome == Placement::kRejected) continue;
    for (const PlacedAdmission& p : events_->placements) {
      if (p.job == d.id && p.node == d.placed) {
        d.lost = p.lost;
        break;
      }
    }
  }
}

void ClusterSim::scan_for_retries(Tick now, Tick horizon) {
  for (; decisions_seen_ < events_->decisions.size(); ++decisions_seen_) {
    const JobDecision& d = events_->decisions[decisions_seen_];
    if (d.outcome != Placement::kRejected) continue;
    const auto spec_it = specs_.find(d.id);
    if (spec_it == specs_.end()) continue;  // not a closed-loop submission
    const auto root_it = retry_root_.find(d.id);
    const std::uint64_t root = root_it == retry_root_.end() ? d.id
                                                            : root_it->second;
    auto& attempts = attempts_[root];
    if (attempts == 0) attempts = 1;  // the root submission itself
    const std::optional<Tick> at = faults::retry_at(
        retry_policy_, attempts, now, spec_it->second.deadline, retry_rng_);
    if (!at || *at >= horizon) continue;  // dead-on-arrival or past the run
    ++attempts;
    ++resubmissions_;
    const std::uint64_t id = next_job_id_++;
    WorkSpec work = spec_it->second;
    work.earliest_start = std::max(work.earliest_start, *at);
    const NodeId origin = origins_.at(d.id);
    specs_[id] = work;
    origins_[id] = origin;
    retry_root_[id] = root;
    retry_queue_[*at].push_back(ClusterArrival{*at, origin, ClusterJob{id, work}});
  }
}

void ClusterSim::inject_retries(Tick now) {
  const auto it = retry_queue_.find(now);
  if (it == retry_queue_.end()) return;
  // Group per origin in queue order — same-tick retries at one origin admit
  // as one FCFS batch, exactly like regular arrivals.
  std::size_t i = 0;
  while (i < it->second.size()) {
    const NodeId origin = it->second[i].origin;
    std::vector<ClusterJob> batch;
    while (i < it->second.size() && it->second[i].origin == origin) {
      batch.push_back(it->second[i].job);
      ++i;
    }
    nodes_[origin]->submit(batch, now);
  }
  retry_queue_.erase(it);
}

ClusterReport ClusterSim::run(Tick horizon) {
  if (ran_) throw std::logic_error("cluster already ran");
  if (nodes_.empty()) throw std::logic_error("cluster has no nodes");
  ran_ = true;

  std::stable_sort(arrivals_.begin(), arrivals_.end(),
                   [](const ClusterArrival& a, const ClusterArrival& b) {
                     if (a.at != b.at) return a.at < b.at;
                     return a.origin < b.origin;
                   });
  std::stable_sort(faults_.begin(), faults_.end(),
                   [](const Fault& a, const Fault& b) { return a.at < b.at; });

  if (retries_enabled_) {
    for (const ClusterArrival& a : arrivals_) {
      specs_[a.job.id] = a.job.work;
      origins_[a.job.id] = a.origin;
    }
  }

  std::size_t next_arrival = 0;
  for (Tick now = 0; now < horizon; ++now) {
    apply_faults(now);
    for (auto& transport : transports_) transport->set_now(now);

    // Dispatch in the fabric's global (deliver_at, seq) order: push each
    // message into its destination transport and pump that node immediately,
    // so cross-node delivery interleavings are exactly the historical ones —
    // per-endpoint polling would erase them.
    for (Message& m : fabric_.deliver_due(now)) {
      const NodeId to = m.to;
      if (to < nodes_.size()) {
        transports_[to]->deliver(std::move(m));
        nodes_[to]->pump(now);
      }
    }

    while (next_arrival < arrivals_.size() &&
           arrivals_[next_arrival].at == now) {
      // Same-tick arrivals at one origin admit as one FCFS batch.
      const NodeId origin = arrivals_[next_arrival].origin;
      std::vector<ClusterJob> batch;
      while (next_arrival < arrivals_.size() &&
             arrivals_[next_arrival].at == now &&
             arrivals_[next_arrival].origin == origin) {
        batch.push_back(arrivals_[next_arrival].job);
        ++next_arrival;
      }
      nodes_[origin]->submit(batch, now);
    }
    if (retries_enabled_) inject_retries(now);

    for (auto& node : nodes_) node->on_tick(now);
    // End-of-tick flush in node-id order: the fabric assigns send-sequence
    // numbers (its delivery tie-break) in exactly the historical order.
    for (auto& transport : transports_) transport->flush(now);
    // Retries are scanned after the flush, so a retry scheduled at tick t is
    // always injected at a strictly later tick (retry_at guarantees >= +2).
    if (retries_enabled_) scan_for_retries(now, horizon);
  }
  for (auto& node : nodes_) node->abort_pending(horizon, "horizon reached");

  mark_lost();

  ClusterReport report;
  report.decisions = events_->decisions;
  report.placements = events_->placements;
  report.messages_sent = fabric_.total_sent();
  report.messages_dropped = fabric_.total_dropped();
  report.messages_delivered = fabric_.total_delivered();
  report.messages_in_flight = fabric_.in_flight();
  report.resubmissions = resubmissions_;
  report.retry_root = retry_root_;
  return report;
}

ResourceSet ClusterSim::total_supply() const {
  ResourceSet total;
  for (const ResourceSet& s : supplies_) total.union_with(s);
  return total;
}

ClusterSim cluster_from_scenario(const Scenario& scenario, CostModel phi,
                                 ClusterConfig config) {
  if (scenario.nodes.empty()) {
    throw std::invalid_argument("scenario declares no cluster nodes");
  }
  ClusterSim sim(std::move(phi), config);
  std::map<std::string, NodeId> by_name;
  for (const ScenarioNode& n : scenario.nodes) {
    if (by_name.count(n.name) != 0) {
      throw std::invalid_argument("duplicate cluster node " + n.name);
    }
    const Location site(n.location);
    // The node's share of the scenario supply: everything rooted at its
    // location (node-local resources and outgoing links).
    ResourceSet supply;
    for (const LocatedType& type : scenario.supply.types()) {
      if (type.source() == site) {
        supply.add(type, scenario.supply.availability(type));
      }
    }
    NodeConfig node_config = config.node;
    node_config.lanes = n.lanes;
    by_name[n.name] = sim.add_node(site, std::move(supply), node_config);
  }
  for (const ScenarioLink& l : scenario.links) {
    const auto from = by_name.find(l.from);
    const auto to = by_name.find(l.to);
    if (from == by_name.end() || to == by_name.end()) {
      throw std::invalid_argument("link references unknown node " +
                                  (from == by_name.end() ? l.from : l.to));
    }
    LinkParams params;
    params.latency = l.latency;
    params.jitter = l.jitter;
    params.drop = static_cast<double>(l.drop_permille) / 1000.0;
    sim.set_link(from->second, to->second, params);
  }
  if (!scenario.faults.empty()) {
    std::vector<std::string> names;
    names.reserve(scenario.nodes.size());
    for (const ScenarioNode& n : scenario.nodes) names.push_back(n.name);
    sim.apply(faults::from_scenario_faults(scenario.faults, names));
  }
  return sim;
}

}  // namespace rota::cluster
