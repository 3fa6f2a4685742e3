// Piecewise-constant rate profiles over discrete time.
//
// This is the engine behind the paper's resource-set simplification: a set of
// resource terms with one located type is exactly a step function mapping
// each tick to the aggregate available rate. Union of terms is pointwise
// addition; relative complement is pointwise subtraction; the paper's
// "simplification" (splitting overlapping terms into aligned segments with
// summed rates) is the canonical segment representation maintained here.
#pragma once

#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "rota/time/interval.hpp"
#include "rota/time/interval_set.hpp"

namespace rota {

/// One maximal run of constant value. Canonical step functions keep segments
/// sorted, disjoint, non-empty, with non-zero values, and never store two
/// touching segments of equal value.
struct Segment {
  TimeInterval interval;
  Rate value = 0;

  bool operator==(const Segment&) const = default;
};

class StepFunction {
 public:
  /// The zero function.
  StepFunction() = default;

  /// value on `iv`, zero elsewhere.
  StepFunction(const TimeInterval& iv, Rate value);

  static StepFunction zero() { return StepFunction(); }

  bool is_zero() const { return segments_.empty(); }

  /// f(t).
  Rate value_at(Tick t) const;

  /// Pointwise addition / subtraction. Values may go negative under
  /// subtraction; callers that need non-negativity use minus_if_dominated().
  StepFunction plus(const StepFunction& other) const;
  StepFunction minus(const StepFunction& other) const;

  /// In-place pointwise addition (the paper's union Θ ∪ {[r]^τ_ξ} on one
  /// located type). Rewrites only the segments the update's support touches:
  /// O(log n + k) for an update overlapping k of n segments, plus the shift of
  /// the segments after them when the count changes.
  void add(const TimeInterval& iv, Rate value);
  void add(const StepFunction& update);

  /// The paper's relative complement on one located type: minus(other) when
  /// *this dominates `other`, nullopt otherwise. Stops at the first piece
  /// where *this < other instead of building the whole difference.
  std::optional<StepFunction> minus_if_dominated(const StepFunction& other) const;

  /// Pointwise min / max with another function.
  StepFunction min(const StepFunction& other) const;
  StepFunction max(const StepFunction& other) const;

  /// Restriction: equal to *this inside `window`, zero outside.
  StepFunction restricted(const TimeInterval& window) const;

  /// In-place restriction to [t, ∞): the paper's expiration transition on one
  /// located type — availability before `t` lapses. A binary search finds the
  /// cut, the prefix is erased and a segment straddling `t` is split, so the
  /// result stays canonical.
  void drop_before(Tick t);

  /// Pointwise clamp to non-negative values.
  StepFunction clamped_nonnegative() const;

  /// Smallest value attained anywhere (0 if the support is not all of time —
  /// i.e., min over the whole timeline, where the function is 0 outside its
  /// support). For "is this non-negative everywhere" checks.
  Rate min_value() const;

  /// Minimum value over `window` (including zero stretches inside it).
  Rate min_over(const TimeInterval& window) const;

  /// ∫ f over `window` — the total quantity available in the window.
  Quantity integral(const TimeInterval& window) const;
  Quantity integral() const;

  /// True iff f(t) >= other(t) for all t. Allocates nothing and stops at the
  /// first piece where f < other.
  bool dominates(const StepFunction& other) const;

  /// Ticks where f > 0.
  IntervalSet support() const;
  /// Ticks within `window` where f >= `threshold` (threshold > 0).
  IntervalSet where_at_least(Rate threshold, const TimeInterval& window) const;

  /// Earliest tick t >= window.start such that ∫_{window.start}^{t} f >= q,
  /// counting only ticks inside `window`; nullopt when the window's total
  /// supply is insufficient. q must be >= 0. For q == 0 returns window.start.
  std::optional<Tick> earliest_cover(const TimeInterval& window, Quantity q) const;

  /// Latest tick t <= window.end such that ∫_{t}^{window.end} f >= q;
  /// nullopt when insufficient. (Used by ALAP schedule policies.)
  std::optional<Tick> latest_cover_start(const TimeInterval& window, Quantity q) const;

  /// Translate in time.
  StepFunction shifted(Tick dt) const;

  /// Conservative downsample to buckets of `factor` ticks (aligned at 0):
  /// each bucket takes the *minimum* value attained inside it, so the result
  /// never overstates availability — any plan feasible against the coarse
  /// profile is feasible against the original. This is the paper's "Δt
  /// defined according to the desired control granularity" as an operation:
  /// reason at coarse granularity, execute at fine.
  StepFunction coarsened(Tick factor) const;

  const std::vector<Segment>& segments() const { return segments_; }

  bool operator==(const StepFunction&) const = default;

  std::string to_string() const;

 private:
  /// Re-establishes canonical form from arbitrary (sorted, disjoint) pieces.
  void normalize();

  /// The one segment-boundary walk over two canonical segment runs: calls
  /// visit(start, end, va, vb) for each piece [start, end) between consecutive
  /// segment boundaries of either run, from the first start to the last end,
  /// in time order. Stops as soon as visit returns false; returns false iff it
  /// stopped early.
  template <typename Visit>
  static bool walk(std::span<const Segment> a, std::span<const Segment> b, Visit visit);

  /// Generic pointwise combine over aligned segment boundaries.
  template <typename Op>
  StepFunction combine(const StepFunction& other, Op op) const;

  /// Appends value v on [start, end) (start >= the current back's end),
  /// dropping zeros and coalescing with an equal-valued touching back.
  void append(Tick start, Tick end, Rate v);

  /// The in-place add behind both add() overloads; `update` is canonical.
  void splice_add(std::span<const Segment> update);

  std::vector<Segment> segments_;
};

std::ostream& operator<<(std::ostream& os, const StepFunction& f);

}  // namespace rota
