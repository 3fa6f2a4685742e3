#include "rota/admission/audit.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace rota {

AuditLog::AuditLog(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) throw std::invalid_argument("AuditLog needs capacity >= 1");
}

void AuditLog::record(Tick at, const ConcurrentRequirement& rho,
                      const AdmissionDecision& decision) {
  AuditEntry entry;
  entry.at = at;
  entry.computation = rho.name();
  entry.window = rho.window();
  entry.total_demand = rho.total_demand().total();
  entry.accepted = decision.accepted;
  if (decision.accepted) {
    entry.planned_finish = decision.plan ? decision.plan->finish : rho.window().end();
    entry.plan = decision.plan;
  } else {
    entry.reason = decision.reason;
  }

  entries_.push_back(std::move(entry));
  if (entries_.size() > capacity_) entries_.pop_front();
  ++total_;
  total_accepted_ += decision.accepted ? 1 : 0;
}

double AuditLog::acceptance() const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(total_accepted_) / static_cast<double>(total_);
}

std::map<std::string, std::size_t> AuditLog::rejection_reasons() const {
  std::map<std::string, std::size_t> out;
  for (const auto& e : entries_) {
    if (!e.accepted) ++out[e.reason];
  }
  return out;
}

std::map<Tick, double> AuditLog::acceptance_by_window(Tick bucket_width) const {
  if (bucket_width <= 0) {
    throw std::invalid_argument("acceptance_by_window needs a positive bucket");
  }
  std::map<Tick, std::pair<std::size_t, std::size_t>> buckets;  // accepted, total
  for (const auto& e : entries_) {
    auto& [accepted, total] = buckets[e.window.length() / bucket_width];
    accepted += e.accepted ? 1 : 0;
    ++total;
  }
  std::map<Tick, double> out;
  for (const auto& [bucket, counts] : buckets) {
    out[bucket] = static_cast<double>(counts.first) / counts.second;
  }
  return out;
}

double AuditLog::mean_slack_fraction() const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& e : entries_) {
    if (!e.accepted || e.window.empty()) continue;
    sum += static_cast<double>(e.window.end() - e.planned_finish) /
           static_cast<double>(e.window.length());
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

std::size_t AuditLog::replay_into(CommitmentLedger& ledger) const {
  // Recovery goes through the same commit gate as live admission
  // (PlanningKernel::replay), so a WAL rebuild cannot bypass the
  // revision-checked path or its conflict handling.
  const PlanningKernel kernel;
  std::size_t replayed = 0;
  Tick last = ledger.now();
  for (const auto& e : entries_) {
    last = std::max(last, e.at);
    if (!e.accepted || !e.plan) continue;
    if (kernel.replay(e.computation, e.window, *e.plan, ledger)) ++replayed;
  }
  // The live ledger's clock stood at the last recorded decision, and it had
  // expired everything before it: so does the rebuilt one.
  ledger.advance_to(last);
  ledger.expire();
  return replayed;
}

std::string AuditLog::to_string() const {
  std::ostringstream out;
  out << "audit: " << total_ << " decisions, acceptance "
      << acceptance() << ", retained " << entries_.size();
  return out.str();
}

AdmissionDecision AuditedController::request(const DistributedComputation& lambda,
                                             Tick now) {
  return request(make_concurrent_requirement(controller_.phi(), lambda), now);
}

AdmissionDecision AuditedController::request(const ConcurrentRequirement& rho,
                                             Tick now) {
  AdmissionDecision decision = controller_.request(rho, now);
  log_.record(now, rho, decision);
  return decision;
}

}  // namespace rota
