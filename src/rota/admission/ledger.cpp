#include "rota/admission/ledger.hpp"

#include <algorithm>
#include <stdexcept>

#include "rota/obs/obs.hpp"

namespace rota {

namespace {

/// Shared bookkeeping for every residual-changing ledger operation, only when
/// metered: bumps `counter` (the operation's event count; null when the
/// operation has none) and refreshes the revision and residual-size gauges.
void note_change(obs::Counter& (*counter)(obs::CoreMetrics&), std::uint64_t revision,
                 const ResourceSet& residual) {
  if (!obs::metrics_enabled()) return;
  obs::CoreMetrics& m = obs::CoreMetrics::get();
  if (counter != nullptr) counter(m).add();
  m.ledger_revision.set(static_cast<std::int64_t>(revision));
  m.ledger_residual_segments.set(static_cast<std::int64_t>(residual.term_count()));
}

}  // namespace

void CommitmentLedger::bump_revision(const ResourceSet& touched) {
  ++revision_;
  touched.for_each_type(
      [this](const LocatedType& type) { ++shard_revisions_[shard_of(type)]; });
}

void CommitmentLedger::bump_revision_all() {
  ++revision_;
  for (auto& r : shard_revisions_) ++r;
}

void CommitmentLedger::drop_lapsed() {
  if (lapsed_before_ == kNothingLapsed) return;
  supply_.drop_before(lapsed_before_);
  residual_.drop_before(lapsed_before_);
}

void CommitmentLedger::join(const ResourceSet& joined) {
  ROTA_OBS_SPAN("ledger.join");
  supply_.union_with(joined);
  residual_.union_with(joined);
  drop_lapsed();
  bump_revision(joined);
  note_change([](obs::CoreMetrics& m) -> obs::Counter& { return m.ledger_joins; },
              revision_, residual_);
}

void CommitmentLedger::advance_to(Tick t) {
  if (t < now_) throw std::logic_error("CommitmentLedger: time cannot move backwards");
  now_ = t;
}

void CommitmentLedger::expire() {
  if (now_ <= lapsed_before_) return;
  ROTA_OBS_SPAN("ledger.expire");
  lapsed_before_ = now_;
  drop_lapsed();
  note_change([](obs::CoreMetrics& m) -> obs::Counter& { return m.ledger_expiries; },
              revision_, residual_);
}

bool CommitmentLedger::admit(const std::string& name, const TimeInterval& window,
                             const ConcurrentPlan& plan) {
  ROTA_OBS_SPAN("ledger.admit");
  const ResourceSet usage = plan.usage_as_resources();
  auto next_residual = residual_.relative_complement(usage);
  if (!next_residual) return false;
  residual_ = std::move(*next_residual);
  admitted_.push_back(AdmittedRecord{name, window, plan, now_});
  bump_revision(usage);
  note_change([](obs::CoreMetrics& m) -> obs::Counter& { return m.ledger_admits; },
              revision_, residual_);
  return true;
}

bool CommitmentLedger::release(const std::string& name) {
  ROTA_OBS_SPAN("ledger.release");
  auto it = std::find_if(admitted_.begin(), admitted_.end(),
                         [&](const AdmittedRecord& r) { return r.name == name; });
  if (it == admitted_.end()) return false;
  if (now_ >= it->window.start()) {
    throw std::logic_error("computation " + name +
                           " has already started and may not leave");
  }
  const ResourceSet usage = it->plan.usage_as_resources();
  residual_.union_with(usage);
  admitted_.erase(it);
  bump_revision(usage);
  note_change([](obs::CoreMetrics& m) -> obs::Counter& { return m.ledger_releases; },
              revision_, residual_);
  return true;
}

bool CommitmentLedger::carve(const ResourceSet& slice) {
  auto next_residual = residual_.relative_complement(slice);
  if (!next_residual) return false;
  auto next_supply = supply_.relative_complement(slice);
  if (!next_supply) return false;  // residual ⊆ supply, so this cannot fail
  residual_ = std::move(*next_residual);
  supply_ = std::move(*next_supply);
  bump_revision(slice);
  note_change(nullptr, revision_, residual_);
  return true;
}

void CommitmentLedger::merge(CommitmentLedger&& other) {
  supply_.union_with(other.supply_);
  residual_.union_with(other.residual_);
  admitted_.insert(admitted_.end(),
                   std::make_move_iterator(other.admitted_.begin()),
                   std::make_move_iterator(other.admitted_.end()));
  now_ = std::max(now_, other.now_);
  lapsed_before_ = std::max(lapsed_before_, other.lapsed_before_);
  drop_lapsed();
  other.supply_ = ResourceSet{};
  other.residual_ = ResourceSet{};
  other.admitted_.clear();
  bump_revision_all();
  note_change(nullptr, revision_, residual_);
}

double CommitmentLedger::utilization(const LocatedType& type,
                                     const TimeInterval& window) const {
  const Quantity total = supply_.quantity(type, window);
  if (total <= 0) return 0.0;
  const Quantity free = residual_.quantity(type, window);
  return 1.0 - static_cast<double>(free) / static_cast<double>(total);
}

}  // namespace rota
