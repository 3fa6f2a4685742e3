#include "rota/logic/state.hpp"

#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace rota {

Quantity ActorProgress::remaining_total() const {
  Quantity total = remaining.total();
  for (std::size_t i = phase_index + 1; i < phases.size(); ++i) {
    total += phases[i].demand.total();
  }
  return total;
}

std::string ConsumptionLabel::to_string() const {
  std::ostringstream out;
  out << type.to_string() << " ->[" << rate << "] #" << commitment;
  return out.str();
}

void SystemState::join(const ResourceSet& joined) { theta_.union_with(joined); }

void SystemState::accommodate(const ConcurrentRequirement& rho) {
  if (now_ >= rho.window().end()) {
    throw std::logic_error("cannot accommodate " + rho.name() +
                           ": its deadline has passed");
  }
  for (const auto& actor_req : rho.actors()) {
    ActorProgress progress;
    progress.computation = rho.name();
    progress.actor = actor_req.actor();
    progress.window = actor_req.window();
    progress.phases = actor_req.phases();
    progress.rate_cap = actor_req.rate_cap();
    if (progress.phases.empty()) {
      progress.finished_at = now_;  // empty computation is vacuously done
      progress.phase_index = 0;
    } else {
      progress.remaining = progress.phases.front().demand;
    }
    commitments_.push_back(std::move(progress));
  }
}

bool SystemState::leave(const std::string& computation) {
  bool found = false;
  for (const auto& p : commitments_) {
    if (p.computation != computation) continue;
    found = true;
    if (now_ >= p.window.start()) {
      throw std::logic_error("computation " + computation +
                             " has already started and may not leave");
    }
  }
  if (!found) return false;
  std::erase_if(commitments_,
                [&](const ActorProgress& p) { return p.computation == computation; });
  return true;
}

void SystemState::advance(const std::vector<ConsumptionLabel>& labels) {
  // Validate aggregate supply per type at the current tick.
  std::map<LocatedType, Rate> claimed;
  std::map<std::pair<std::size_t, LocatedType>, Rate> claimed_by_commitment;
  for (const auto& label : labels) {
    if (label.commitment >= commitments_.size()) {
      throw std::logic_error("consumption label names commitment #" +
                             std::to_string(label.commitment) + " of " +
                             std::to_string(commitments_.size()));
    }
    if (label.rate <= 0) {
      throw std::logic_error("consumption rate must be positive: " + label.to_string());
    }
    const ActorProgress& p = commitments_[label.commitment];
    if (p.finished()) {
      throw std::logic_error("finished commitment cannot consume: " + label.to_string());
    }
    if (now_ < p.window.start()) {
      throw std::logic_error(p.actor + " may not consume before its start time " +
                             std::to_string(p.window.start()));
    }
    if (p.remaining.of(label.type) < label.rate) {
      throw std::logic_error("consumption overshoots remaining demand: " +
                             label.to_string());
    }
    Rate& by_actor = claimed_by_commitment[{label.commitment, label.type}];
    by_actor += label.rate;
    if (p.rate_cap > 0 && by_actor > p.rate_cap) {
      throw std::logic_error(p.actor + " exceeds its absorption rate cap of " +
                             std::to_string(p.rate_cap) + ": " + label.to_string());
    }
    claimed[label.type] += label.rate;
  }
  for (const auto& [type, rate] : claimed) {
    const Rate available = theta_.availability(type).value_at(now_);
    if (rate > available) {
      throw std::logic_error("claims on " + type.to_string() + " total " +
                             std::to_string(rate) + " but only " +
                             std::to_string(available) + " is available at t=" +
                             std::to_string(now_));
    }
  }

  // Apply consumption; phase completion promotes the next phase.
  for (const auto& label : labels) {
    ActorProgress& p = commitments_[label.commitment];
    p.remaining.subtract(label.type, label.rate);  // rate × Δt with Δt = 1
    while (p.remaining.empty() && !p.finished()) {
      ++p.phase_index;
      if (p.finished()) {
        p.finished_at = now_ + 1;  // done once this slice elapses
      } else {
        p.remaining = p.phases[p.phase_index].demand;
      }
    }
  }
  ++now_;  // everything unclaimed at the previous tick has now expired
}

void SystemState::garbage_collect() { theta_.drop_before(now_); }

bool SystemState::all_finished() const {
  for (const auto& p : commitments_) {
    if (!p.finished()) return false;
  }
  return true;
}

bool SystemState::any_missed() const {
  for (const auto& p : commitments_) {
    if (p.missed_by(now_)) return true;
  }
  return false;
}

std::size_t SystemState::unfinished_count() const {
  std::size_t n = 0;
  for (const auto& p : commitments_) n += p.finished() ? 0 : 1;
  return n;
}

std::string SystemState::to_string() const {
  std::ostringstream out;
  out << "S(t=" << now_ << ", |theta|=" << theta_.term_count() << " terms, "
      << commitments_.size() << " commitments, " << unfinished_count()
      << " unfinished)";
  return out.str();
}

std::ostream& operator<<(std::ostream& os, const SystemState& s) {
  return os << s.to_string();
}

}  // namespace rota
