#include "rota/resource/step_function.hpp"

#include <algorithm>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace rota {

StepFunction::StepFunction(const TimeInterval& iv, Rate value) {
  if (!iv.empty() && value != 0) segments_.push_back({iv, value});
}

void StepFunction::normalize() {
  std::vector<Segment> out;
  out.reserve(segments_.size());
  for (const auto& seg : segments_) {
    if (seg.interval.empty() || seg.value == 0) continue;
    if (!out.empty() && out.back().value == seg.value &&
        out.back().interval.end() == seg.interval.start()) {
      out.back().interval =
          TimeInterval(out.back().interval.start(), seg.interval.end());
    } else {
      out.push_back(seg);
    }
  }
  segments_ = std::move(out);
}

Rate StepFunction::value_at(Tick t) const {
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), t,
      [](Tick v, const Segment& s) { return v < s.interval.start(); });
  if (it == segments_.begin()) return 0;
  const Segment& seg = *std::prev(it);
  return seg.interval.contains(t) ? seg.value : 0;
}

template <typename Visit>
bool StepFunction::walk(std::span<const Segment> a, std::span<const Segment> b,
                        Visit visit) {
  // Both segment lists are sorted and disjoint, and each function is constant
  // between consecutive boundaries, so one merge walk advances a cursor
  // boundary to boundary: one pass, no boundary sort, no per-boundary binary
  // search. Gaps inside the union of supports are visited with zero values;
  // the unbounded stretches outside it, where both functions are 0, are not.
  std::size_t ia = 0, ib = 0;
  Tick t = std::numeric_limits<Tick>::min();
  if (!a.empty()) t = a.front().interval.start();
  if (!b.empty() && (a.empty() || b.front().interval.start() < t)) {
    t = b.front().interval.start();
  }
  while (ia < a.size() || ib < b.size()) {
    while (ia < a.size() && a[ia].interval.end() <= t) ++ia;
    while (ib < b.size() && b[ib].interval.end() <= t) ++ib;
    if (ia >= a.size() && ib >= b.size()) break;
    Rate va = 0, vb = 0;
    Tick next = std::numeric_limits<Tick>::max();
    if (ia < a.size()) {
      if (a[ia].interval.start() <= t) {
        va = a[ia].value;
        next = a[ia].interval.end();
      } else {
        next = a[ia].interval.start();
      }
    }
    if (ib < b.size()) {
      if (b[ib].interval.start() <= t) {
        vb = b[ib].value;
        next = std::min(next, b[ib].interval.end());
      } else {
        next = std::min(next, b[ib].interval.start());
      }
    }
    if (!visit(t, next, va, vb)) return false;
    t = next;
  }
  return true;
}

// Every emitted piece of every walk passes through here; kept inline so the
// walk loops pay no call per segment.
inline void StepFunction::append(Tick start, Tick end, Rate v) {
  if (v == 0) return;
  if (!segments_.empty() && segments_.back().value == v &&
      segments_.back().interval.end() == start) {
    segments_.back().interval = TimeInterval(segments_.back().interval.start(), end);
  } else {
    segments_.push_back({TimeInterval(start, end), v});
  }
}

template <typename Op>
StepFunction StepFunction::combine(const StepFunction& other, Op op) const {
  // The walk's pieces arrive in time order, so appending op(here, there) and
  // coalescing runs as they appear yields canonical form directly. (Requires
  // op(0, 0) == 0, which holds for +, -, min, and max — anything else would
  // be nonzero over the unbounded gaps outside both supports.)
  StepFunction result;
  result.segments_.reserve(segments_.size() + other.segments_.size());
  walk(segments_, other.segments_, [&result, op](Tick start, Tick end, Rate va, Rate vb) {
    result.append(start, end, op(va, vb));
    return true;
  });
  return result;
}

StepFunction StepFunction::plus(const StepFunction& other) const {
  return combine(other, [](Rate a, Rate b) { return a + b; });
}

StepFunction StepFunction::minus(const StepFunction& other) const {
  return combine(other, [](Rate a, Rate b) { return a - b; });
}

std::optional<StepFunction> StepFunction::minus_if_dominated(
    const StepFunction& other) const {
  StepFunction result;
  result.segments_.reserve(segments_.size() + other.segments_.size());
  const bool dominated =
      walk(segments_, other.segments_, [&result](Tick start, Tick end, Rate va, Rate vb) {
        if (va < vb) return false;
        result.append(start, end, va - vb);
        return true;
      });
  if (!dominated) return std::nullopt;
  return result;
}

void StepFunction::add(const TimeInterval& iv, Rate value) {
  if (iv.empty() || value == 0) return;
  const Segment term{iv, value};
  splice_add({&term, 1});
}

void StepFunction::add(const StepFunction& update) { splice_add(update.segments_); }

void StepFunction::splice_add(std::span<const Segment> update) {
  if (update.empty()) return;
  const Tick lo = update.front().interval.start();
  const Tick hi = update.back().interval.end();
  if (segments_.empty() || segments_.back().interval.end() <= lo) {
    for (const auto& seg : update) append(seg.interval.start(), seg.interval.end(), seg.value);
    return;
  }
  // The segments [lo, hi) overlaps, widened by one neighbour on each side.
  // The update is zero on those neighbours, so the walk reproduces their
  // outer ends unchanged: any coalescing across an edge of the slice happens
  // inside the walk, and writing the result back over the slice keeps the
  // whole profile canonical.
  auto first = segments_.begin();
  auto last = segments_.end();
  if (first->interval.end() <= lo) {
    first = std::prev(std::partition_point(
        first, last, [lo](const Segment& s) { return s.interval.end() <= lo; }));
  }
  if (std::prev(last)->interval.start() >= hi) {
    last = std::next(std::partition_point(
        first, last, [hi](const Segment& s) { return s.interval.start() < hi; }));
  }
  const auto old_n = static_cast<std::size_t>(last - first);

  StepFunction merged;
  merged.segments_.reserve(old_n + update.size());
  walk({first, last}, update, [&merged](Tick start, Tick end, Rate va, Rate vb) {
    merged.append(start, end, va + vb);
    return true;
  });
  if (old_n == segments_.size()) {
    segments_ = std::move(merged.segments_);
    return;
  }
  const std::vector<Segment>& fresh = merged.segments_;
  const std::size_t keep = std::min(old_n, fresh.size());
  first = std::copy_n(fresh.begin(), keep, first);
  if (fresh.size() < old_n) {
    segments_.erase(first, last);
  } else {
    segments_.insert(first, fresh.begin() + static_cast<std::ptrdiff_t>(keep), fresh.end());
  }
}

StepFunction StepFunction::min(const StepFunction& other) const {
  return combine(other, [](Rate a, Rate b) { return a < b ? a : b; });
}

StepFunction StepFunction::max(const StepFunction& other) const {
  return combine(other, [](Rate a, Rate b) { return a > b ? a : b; });
}

StepFunction StepFunction::restricted(const TimeInterval& window) const {
  StepFunction result;
  for (const auto& seg : segments_) {
    if (seg.interval.start() >= window.end()) break;  // sorted: nothing later overlaps
    const TimeInterval x = seg.interval.intersection(window);
    if (!x.empty()) result.segments_.push_back({x, seg.value});
  }
  result.normalize();
  return result;
}

void StepFunction::drop_before(Tick t) {
  const auto cut = std::partition_point(
      segments_.begin(), segments_.end(),
      [t](const Segment& s) { return s.interval.end() <= t; });
  if (cut != segments_.end() && cut->interval.start() < t) {
    cut->interval = TimeInterval(t, cut->interval.end());
  }
  segments_.erase(segments_.begin(), cut);
}

StepFunction StepFunction::clamped_nonnegative() const {
  StepFunction result;
  for (const auto& seg : segments_) {
    if (seg.value > 0) result.segments_.push_back(seg);
  }
  result.normalize();
  return result;
}

Rate StepFunction::min_value() const {
  // The function is 0 outside its support, so the min starts (and floors) at 0.
  Rate m = 0;
  for (const auto& seg : segments_) m = std::min(m, seg.value);
  return m;
}

Rate StepFunction::min_over(const TimeInterval& window) const {
  if (window.empty()) return 0;
  Rate m = std::numeric_limits<Rate>::max();
  Tick covered_until = window.start();
  for (const auto& seg : segments_) {
    const TimeInterval x = seg.interval.intersection(window);
    if (x.empty()) continue;
    if (x.start() > covered_until) m = std::min<Rate>(m, 0);  // gap inside window
    m = std::min(m, seg.value);
    covered_until = std::max(covered_until, x.end());
  }
  if (covered_until < window.end()) m = std::min<Rate>(m, 0);
  return m == std::numeric_limits<Rate>::max() ? 0 : m;
}

Quantity StepFunction::integral(const TimeInterval& window) const {
  Quantity total = 0;
  for (const auto& seg : segments_) {
    const TimeInterval x = seg.interval.intersection(window);
    total += static_cast<Quantity>(x.length()) * seg.value;
  }
  return total;
}

Quantity StepFunction::integral() const {
  Quantity total = 0;
  for (const auto& seg : segments_) {
    total += static_cast<Quantity>(seg.interval.length()) * seg.value;
  }
  return total;
}

bool StepFunction::dominates(const StepFunction& other) const {
  return walk(segments_, other.segments_,
              [](Tick, Tick, Rate va, Rate vb) { return va >= vb; });
}

IntervalSet StepFunction::support() const {
  IntervalSet out;
  for (const auto& seg : segments_) {
    if (seg.value > 0) out.insert(seg.interval);
  }
  return out;
}

IntervalSet StepFunction::where_at_least(Rate threshold, const TimeInterval& window) const {
  if (threshold <= 0) {
    throw std::invalid_argument("where_at_least requires a positive threshold");
  }
  IntervalSet out;
  for (const auto& seg : segments_) {
    if (seg.value < threshold) continue;
    const TimeInterval x = seg.interval.intersection(window);
    if (!x.empty()) out.insert(x);
  }
  return out;
}

std::optional<Tick> StepFunction::earliest_cover(const TimeInterval& window,
                                                 Quantity q) const {
  if (q < 0) throw std::invalid_argument("earliest_cover requires q >= 0");
  if (q == 0) return window.start();
  Quantity remaining = q;
  for (const auto& seg : segments_) {
    const TimeInterval x = seg.interval.intersection(window);
    if (x.empty() || seg.value <= 0) continue;
    const Quantity here = static_cast<Quantity>(x.length()) * seg.value;
    if (here >= remaining) {
      const Tick ticks_needed = (remaining + seg.value - 1) / seg.value;  // ceil
      return x.start() + ticks_needed;
    }
    remaining -= here;
  }
  return std::nullopt;
}

std::optional<Tick> StepFunction::latest_cover_start(const TimeInterval& window,
                                                     Quantity q) const {
  if (q < 0) throw std::invalid_argument("latest_cover_start requires q >= 0");
  if (q == 0) return window.end();
  Quantity remaining = q;
  for (auto it = segments_.rbegin(); it != segments_.rend(); ++it) {
    const TimeInterval x = it->interval.intersection(window);
    if (x.empty() || it->value <= 0) continue;
    const Quantity here = static_cast<Quantity>(x.length()) * it->value;
    if (here >= remaining) {
      const Tick ticks_needed = (remaining + it->value - 1) / it->value;  // ceil
      return x.end() - ticks_needed;
    }
    remaining -= here;
  }
  return std::nullopt;
}

StepFunction StepFunction::coarsened(Tick factor) const {
  if (factor <= 0) throw std::invalid_argument("coarsened requires factor >= 1");
  if (factor == 1 || segments_.empty()) return *this;

  auto floor_div = [](Tick a, Tick b) {
    return a >= 0 ? a / b : -((-a + b - 1) / b);
  };
  const Tick first_bucket = floor_div(segments_.front().interval.start(), factor);
  const Tick last_bucket = floor_div(segments_.back().interval.end() - 1, factor);

  StepFunction result;
  for (Tick b = first_bucket; b <= last_bucket; ++b) {
    const TimeInterval bucket(b * factor, (b + 1) * factor);
    const Rate v = min_over(bucket);  // counts gaps inside the bucket as 0
    if (v != 0) result.segments_.push_back({bucket, v});
  }
  result.normalize();
  return result;
}

StepFunction StepFunction::shifted(Tick dt) const {
  StepFunction result;
  result.segments_.reserve(segments_.size());
  for (const auto& seg : segments_) {
    result.segments_.push_back({seg.interval.shifted(dt), seg.value});
  }
  return result;
}

std::string StepFunction::to_string() const {
  if (segments_.empty()) return "0";
  std::ostringstream out;
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    if (i != 0) out << " + ";
    out << segments_[i].value << '@' << segments_[i].interval.to_string();
  }
  return out.str();
}

std::ostream& operator<<(std::ostream& os, const StepFunction& f) {
  return os << f.to_string();
}

}  // namespace rota
