#include "rota/resource/step_function.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <stdexcept>
#include <vector>

#include "rota/fuzz/gen.hpp"
#include "rota/fuzz/reference.hpp"
#include "rota/util/rng.hpp"

namespace rota {
namespace {

// Every tick where either function may change value: both are constant
// between consecutive entries, so checking these ticks checks all of time.
std::vector<Tick> boundaries(const StepFunction& a, const StepFunction& b) {
  std::vector<Tick> ticks;
  for (const StepFunction* f : {&a, &b}) {
    for (const auto& seg : f->segments()) {
      ticks.push_back(seg.interval.start());
      ticks.push_back(seg.interval.end());
    }
  }
  return ticks;
}

bool dominates_pointwise(const StepFunction& a, const StepFunction& b) {
  for (Tick t : boundaries(a, b)) {
    if (a.value_at(t) < b.value_at(t)) return false;
  }
  return true;
}

// Sums `terms` random two-term functions (negative rates allowed); 4 to 24
// terms span combined segment counts from a handful to several dozen.
StepFunction summed_terms(fuzz::Gen& gen, int terms) {
  StepFunction f;
  for (int i = 0; i < terms; ++i) f = f.plus(gen.step_function(2, true).first);
  return f;
}

// Alternating ±max/4 rates on meeting unit segments: a and b interleave so
// every combined piece carries an extreme value (max/4 - -max/4 still fits).
std::pair<StepFunction, StepFunction> extreme_pair() {
  const Rate big = std::numeric_limits<Rate>::max() / 4;
  StepFunction a, b;
  for (int i = 0; i < 12; ++i) {
    a = a.plus(StepFunction(TimeInterval(2 * i, 2 * i + 1), i % 2 ? big : -big));
    b = b.plus(StepFunction(TimeInterval(2 * i + 1, 2 * i + 2), i % 2 ? -big : big));
  }
  return {a, b};
}

TEST(StepFunction, ZeroByDefault) {
  StepFunction f;
  EXPECT_TRUE(f.is_zero());
  EXPECT_EQ(f.value_at(0), 0);
  EXPECT_EQ(f.integral(), 0);
}

TEST(StepFunction, SingleSegment) {
  StepFunction f(TimeInterval(2, 6), 5);
  EXPECT_EQ(f.value_at(1), 0);
  EXPECT_EQ(f.value_at(2), 5);
  EXPECT_EQ(f.value_at(5), 5);
  EXPECT_EQ(f.value_at(6), 0);
  EXPECT_EQ(f.integral(), 20);
}

TEST(StepFunction, ZeroRateOrEmptyIntervalIsZeroFunction) {
  EXPECT_TRUE(StepFunction(TimeInterval(2, 6), 0).is_zero());
  EXPECT_TRUE(StepFunction(TimeInterval(), 5).is_zero());
}

TEST(StepFunction, PlusDisjoint) {
  StepFunction f(TimeInterval(0, 2), 3);
  StepFunction g(TimeInterval(4, 6), 7);
  StepFunction h = f.plus(g);
  EXPECT_EQ(h.value_at(1), 3);
  EXPECT_EQ(h.value_at(3), 0);
  EXPECT_EQ(h.value_at(5), 7);
  EXPECT_EQ(h.segments().size(), 2u);
}

TEST(StepFunction, PlusOverlappingAddsRates) {
  // The paper's simplification: {5}^(0,3) ∪ {5}^(0,5) = {10}^(0,3), {5}^(3,5)
  StepFunction f(TimeInterval(0, 3), 5);
  StepFunction g(TimeInterval(0, 5), 5);
  StepFunction h = f.plus(g);
  ASSERT_EQ(h.segments().size(), 2u);
  EXPECT_EQ(h.segments()[0], (Segment{TimeInterval(0, 3), 10}));
  EXPECT_EQ(h.segments()[1], (Segment{TimeInterval(3, 5), 5}));
}

TEST(StepFunction, MeetingEqualRatesMerge) {
  StepFunction f(TimeInterval(0, 3), 4);
  StepFunction g(TimeInterval(3, 7), 4);
  StepFunction h = f.plus(g);
  ASSERT_EQ(h.segments().size(), 1u);
  EXPECT_EQ(h.segments()[0], (Segment{TimeInterval(0, 7), 4}));
}

TEST(StepFunction, MinusProducesNegativeValues) {
  StepFunction f(TimeInterval(0, 4), 2);
  StepFunction g(TimeInterval(2, 6), 5);
  StepFunction h = f.minus(g);
  EXPECT_EQ(h.value_at(1), 2);
  EXPECT_EQ(h.value_at(3), -3);
  EXPECT_EQ(h.value_at(5), -5);
  EXPECT_EQ(h.min_value(), -5);

  // A handful to dozens of combined segments, and ±max/4 rates.
  std::vector<std::pair<StepFunction, StepFunction>> pairs{extreme_pair()};
  for (int terms : {4, 8, 12, 16, 24}) {
    fuzz::Gen gen(static_cast<std::uint64_t>(100 + terms));
    StepFunction a = summed_terms(gen, terms);
    pairs.emplace_back(a, summed_terms(gen, terms));
  }
  for (const auto& [a, b] : pairs) {
    const StepFunction diff = a.minus(b);
    for (Tick t : boundaries(a, b)) {
      EXPECT_EQ(diff.value_at(t), a.value_at(t) - b.value_at(t)) << "t=" << t;
    }
    EXPECT_EQ(diff.plus(b), a);
  }
  const auto [a, b] = extreme_pair();
  EXPECT_EQ(a.min_value(), -std::numeric_limits<Rate>::max() / 4);
  EXPECT_EQ(a.min(b).min_value(), -std::numeric_limits<Rate>::max() / 4);
}

TEST(StepFunction, MinusSelfIsZero) {
  StepFunction f(TimeInterval(0, 4), 2);
  EXPECT_TRUE(f.minus(f).is_zero());
}

TEST(StepFunction, MinAndMax) {
  StepFunction f(TimeInterval(0, 4), 3);
  StepFunction g(TimeInterval(2, 6), 5);
  EXPECT_EQ(f.min(g).value_at(1), 0);  // g is 0 there, min is 0 → dropped
  EXPECT_EQ(f.min(g).value_at(3), 3);
  EXPECT_EQ(f.max(g).value_at(1), 3);
  EXPECT_EQ(f.max(g).value_at(3), 5);
  EXPECT_EQ(f.max(g).value_at(5), 5);
}

TEST(StepFunction, Restricted) {
  StepFunction f(TimeInterval(0, 10), 2);
  StepFunction r = f.restricted(TimeInterval(3, 5));
  EXPECT_EQ(r.value_at(2), 0);
  EXPECT_EQ(r.value_at(3), 2);
  EXPECT_EQ(r.value_at(4), 2);
  EXPECT_EQ(r.value_at(5), 0);
  EXPECT_EQ(r.integral(), 4);
}

TEST(StepFunction, DropBeforeCutsInPlace) {
  StepFunction f(TimeInterval(0, 4), 2);
  f.add(TimeInterval(4, 8), 5);
  StepFunction before = f;
  before.drop_before(-3);  // before the support: untouched
  EXPECT_EQ(before, f);
  StepFunction boundary = f;
  boundary.drop_before(4);  // on a boundary: the first segment goes whole
  EXPECT_EQ(boundary, StepFunction(TimeInterval(4, 8), 5));
  StepFunction inside = f;
  inside.drop_before(6);  // inside a segment: it is split
  EXPECT_EQ(inside, StepFunction(TimeInterval(6, 8), 5));
  StepFunction after = f;
  after.drop_before(8);  // at or past the end: the zero function
  EXPECT_TRUE(after.is_zero());
}

TEST(StepFunction, ClampedNonnegative) {
  StepFunction f(TimeInterval(0, 4), 2);
  StepFunction g = f.minus(StepFunction(TimeInterval(2, 6), 5)).clamped_nonnegative();
  EXPECT_EQ(g.value_at(1), 2);
  EXPECT_EQ(g.value_at(3), 0);
  EXPECT_GE(g.min_value(), 0);
}

TEST(StepFunction, MinOverWindow) {
  StepFunction f(TimeInterval(0, 4), 3);
  f.add(TimeInterval(4, 8), 7);
  EXPECT_EQ(f.min_over(TimeInterval(0, 8)), 3);
  EXPECT_EQ(f.min_over(TimeInterval(4, 8)), 7);
  EXPECT_EQ(f.min_over(TimeInterval(2, 10)), 0);  // gap beyond 8
  EXPECT_EQ(f.min_over(TimeInterval(-5, 2)), 0);  // gap before 0
  EXPECT_EQ(f.min_over(TimeInterval()), 0);
}

TEST(StepFunction, IntegralOverWindow) {
  StepFunction f(TimeInterval(0, 4), 3);
  f.add(TimeInterval(6, 8), 5);
  EXPECT_EQ(f.integral(TimeInterval(0, 10)), 12 + 10);
  EXPECT_EQ(f.integral(TimeInterval(2, 7)), 6 + 5);
  EXPECT_EQ(f.integral(TimeInterval(4, 6)), 0);
}

TEST(StepFunction, Dominates) {
  StepFunction f(TimeInterval(0, 10), 5);
  StepFunction g(TimeInterval(2, 8), 3);
  EXPECT_TRUE(f.dominates(g));
  EXPECT_FALSE(g.dominates(f));
  EXPECT_TRUE(f.dominates(f));
  // More total quantity does not imply domination.
  StepFunction spike(TimeInterval(0, 1), 100);
  EXPECT_FALSE(spike.dominates(g));

  // A handful to dozens of combined segments, and ±max/4 rates.
  std::vector<std::pair<StepFunction, StepFunction>> pairs{extreme_pair()};
  for (int terms : {4, 8, 12, 16, 24}) {
    fuzz::Gen gen(static_cast<std::uint64_t>(200 + terms));
    const StepFunction a = summed_terms(gen, terms);
    const StepFunction b = summed_terms(gen, terms);
    pairs.emplace_back(a, b);
    pairs.emplace_back(a.max(b), b);  // dominated by construction
  }
  for (const auto& [a, b] : pairs) {
    EXPECT_EQ(a.dominates(b), dominates_pointwise(a, b)) << a << " vs " << b;
    EXPECT_EQ(b.dominates(a), dominates_pointwise(b, a)) << b << " vs " << a;
  }
}

TEST(StepFunctionDominates, FailsOnlyInsideAGapOfThis) {
  // f covers [0,4) and [6,10) generously; g asks for 1 across [0,10). The
  // only losing ticks are f's gap [4,6), where f reads 0.
  StepFunction f(TimeInterval(0, 4), 9);
  f.add(TimeInterval(6, 10), 9);
  const StepFunction g(TimeInterval(0, 10), 1);
  EXPECT_FALSE(f.dominates(g));
  EXPECT_FALSE(f.minus_if_dominated(g).has_value());
  // Filling the gap restores dominance.
  f.add(TimeInterval(4, 6), 1);
  EXPECT_TRUE(f.dominates(g));
  EXPECT_TRUE(f.minus_if_dominated(g).has_value());
}

TEST(StepFunctionDominates, NegativeThisAgainstZero) {
  StepFunction debt(TimeInterval(3, 5), -2);
  EXPECT_FALSE(debt.dominates(StepFunction::zero()));
  EXPECT_TRUE(StepFunction::zero().dominates(debt));
  EXPECT_FALSE(debt.minus_if_dominated(StepFunction::zero()).has_value());
  // 0 - debt is the positive mirror image.
  const auto mirror = StepFunction::zero().minus_if_dominated(debt);
  ASSERT_TRUE(mirror.has_value());
  EXPECT_EQ(*mirror, StepFunction(TimeInterval(3, 5), 2));
  EXPECT_TRUE(StepFunction::zero().dominates(StepFunction::zero()));
  EXPECT_EQ(StepFunction::zero().minus_if_dominated(StepFunction::zero()),
            StepFunction::zero());
}

TEST(StepFunctionMinusIfDominated, RejectsALateFirstNegativePiece) {
  // 40 pieces where f exceeds g, then one tick at the very end where g wins.
  StepFunction f, g;
  for (int i = 0; i < 40; ++i) {
    f.add(TimeInterval(2 * i, 2 * i + 2), 10 + i % 3);
    g.add(TimeInterval(2 * i, 2 * i + 1), 5);
  }
  g.add(TimeInterval(79, 80), 20);
  EXPECT_FALSE(f.dominates(g));
  EXPECT_FALSE(f.minus_if_dominated(g).has_value());
  EXPECT_LT(f.minus(g).min_value(), 0);
}

TEST(StepFunctionMinusIfDominated, EqualsMinusWheneverDefined) {
  int defined = 0;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    fuzz::Gen gen(seed);
    const StepFunction a = gen.step_function(24, true).first;
    const StepFunction b = gen.step_function(24, true).first;
    for (const StepFunction& have : {a, a.max(b), a.plus(b)}) {
      const auto got = have.minus_if_dominated(b);
      ASSERT_EQ(got.has_value(), have.minus(b).min_value() >= 0) << "seed " << seed;
      EXPECT_EQ(got.has_value(), have.dominates(b)) << "seed " << seed;
      if (got) {
        EXPECT_EQ(*got, have.minus(b)) << "seed " << seed;
        ++defined;
      }
    }
  }
  EXPECT_GE(defined, 64);  // a.max(b) is always defined
}

TEST(StepFunction, Support) {
  StepFunction f(TimeInterval(0, 3), 2);
  f.add(TimeInterval(5, 7), 4);
  IntervalSet s = f.support();
  EXPECT_EQ(s, (IntervalSet{TimeInterval(0, 3), TimeInterval(5, 7)}));
}

TEST(StepFunction, WhereAtLeast) {
  StepFunction f(TimeInterval(0, 4), 3);
  f.add(TimeInterval(4, 8), 7);
  EXPECT_EQ(f.where_at_least(5, TimeInterval(0, 10)), IntervalSet(TimeInterval(4, 8)));
  EXPECT_EQ(f.where_at_least(1, TimeInterval(0, 10)), IntervalSet(TimeInterval(0, 8)));
  EXPECT_THROW(f.where_at_least(0, TimeInterval(0, 10)), std::invalid_argument);
}

TEST(StepFunction, EarliestCoverExactFit) {
  StepFunction f(TimeInterval(0, 10), 4);
  EXPECT_EQ(f.earliest_cover(TimeInterval(0, 10), 8), 2);   // two full ticks
  EXPECT_EQ(f.earliest_cover(TimeInterval(0, 10), 9), 3);   // partial third tick
  EXPECT_EQ(f.earliest_cover(TimeInterval(0, 10), 0), 0);
  EXPECT_EQ(f.earliest_cover(TimeInterval(3, 10), 4), 4);
}

TEST(StepFunction, EarliestCoverAcrossSegments) {
  StepFunction f(TimeInterval(0, 2), 1);
  f.add(TimeInterval(5, 10), 10);
  // 2 units by tick 2, then 10/tick from 5: quantity 12 reaches at 6.
  EXPECT_EQ(f.earliest_cover(TimeInterval(0, 10), 12), 6);
}

TEST(StepFunction, EarliestCoverInsufficient) {
  StepFunction f(TimeInterval(0, 3), 2);
  EXPECT_FALSE(f.earliest_cover(TimeInterval(0, 3), 7).has_value());
  EXPECT_FALSE(StepFunction().earliest_cover(TimeInterval(0, 100), 1).has_value());
}

TEST(StepFunction, EarliestCoverNegativeThrows) {
  StepFunction f(TimeInterval(0, 3), 2);
  EXPECT_THROW(f.earliest_cover(TimeInterval(0, 3), -1), std::invalid_argument);
}

TEST(StepFunction, LatestCoverStart) {
  StepFunction f(TimeInterval(0, 10), 4);
  EXPECT_EQ(f.latest_cover_start(TimeInterval(0, 10), 8), 8);
  EXPECT_EQ(f.latest_cover_start(TimeInterval(0, 10), 9), 7);  // partial leading tick
  EXPECT_EQ(f.latest_cover_start(TimeInterval(0, 10), 0), 10);
  EXPECT_FALSE(f.latest_cover_start(TimeInterval(0, 2), 9).has_value());
}

TEST(StepFunction, Shifted) {
  StepFunction f(TimeInterval(0, 3), 2);
  StepFunction g = f.shifted(5);
  EXPECT_EQ(g.value_at(4), 0);
  EXPECT_EQ(g.value_at(5), 2);
  EXPECT_EQ(g.value_at(7), 2);
  EXPECT_EQ(g.value_at(8), 0);
}

TEST(StepFunction, ToString) {
  EXPECT_EQ(StepFunction().to_string(), "0");
  StepFunction f(TimeInterval(0, 3), 2);
  EXPECT_EQ(f.to_string(), "2@[0, 3)");
}

TEST(StepFunction, CanonicalFormInvariants) {
  StepFunction f;
  f.add(TimeInterval(0, 5), 2);
  f.add(TimeInterval(5, 9), 2);   // merges
  f.add(TimeInterval(3, 4), -2);  // punches a zero hole
  const auto& segs = f.segments();
  for (std::size_t i = 0; i < segs.size(); ++i) {
    EXPECT_NE(segs[i].value, 0);
    EXPECT_FALSE(segs[i].interval.empty());
    if (i > 0) {
      EXPECT_LE(segs[i - 1].interval.end(), segs[i].interval.start());
      if (segs[i - 1].interval.end() == segs[i].interval.start()) {
        EXPECT_NE(segs[i - 1].value, segs[i].value);
      }
    }
  }
  EXPECT_EQ(f.value_at(3), 0);
  EXPECT_EQ(f.value_at(2), 2);
  EXPECT_EQ(f.value_at(4), 2);
}

TEST(StepFunctionCoarsen, BucketTakesTheMinimum) {
  StepFunction f;
  f.add(TimeInterval(0, 3), 5);
  f.add(TimeInterval(3, 8), 2);
  StepFunction c = f.coarsened(4);
  // Bucket [0,4): values 5,5,5,2 → 2. Bucket [4,8): all 2 → 2.
  EXPECT_EQ(c.value_at(0), 2);
  EXPECT_EQ(c.value_at(5), 2);
  EXPECT_EQ(c.value_at(8), 0);
}

TEST(StepFunctionCoarsen, GapsZeroTheirBucket) {
  StepFunction f;
  f.add(TimeInterval(0, 3), 5);
  f.add(TimeInterval(5, 8), 5);  // gap at [3,5) straddles both buckets
  StepFunction c = f.coarsened(4);
  EXPECT_TRUE(c.is_zero());
}

TEST(StepFunctionCoarsen, FactorOneIsIdentity) {
  StepFunction f(TimeInterval(2, 9), 3);
  EXPECT_EQ(f.coarsened(1), f);
}

TEST(StepFunctionCoarsen, InvalidFactorThrows) {
  StepFunction f(TimeInterval(0, 4), 3);
  EXPECT_THROW(f.coarsened(0), std::invalid_argument);
  EXPECT_THROW(f.coarsened(-2), std::invalid_argument);
}

TEST(StepFunctionCoarsen, NegativeTimeBucketsAlign) {
  StepFunction f(TimeInterval(-8, -1), 4);
  StepFunction c = f.coarsened(4);
  EXPECT_EQ(c.value_at(-5), 4);   // bucket [-8,-4) fully covered
  EXPECT_EQ(c.value_at(-2), 0);   // bucket [-4,0) only partially covered
}

TEST(StepFunctionCoarsen, NeverExceedsOriginal) {
  util::Rng rng(424242);
  for (int round = 0; round < 30; ++round) {
    StepFunction f;
    const int pieces = static_cast<int>(rng.uniform(1, 5));
    for (int i = 0; i < pieces; ++i) {
      const Tick s = rng.uniform(0, 40);
      f.add(TimeInterval(s, s + rng.uniform(1, 12)), rng.uniform(1, 9));
    }
    const Tick factor = rng.uniform(2, 7);
    const StepFunction c = f.coarsened(factor);
    EXPECT_TRUE(f.dominates(c)) << "factor=" << factor;
    // Aligned fully-covered buckets are preserved exactly.
    for (Tick t = 0; t < 60; ++t) {
      EXPECT_LE(c.value_at(t), f.value_at(t)) << "t=" << t;
    }
  }
}

// ------------------------------------------------------------------
// Randomized equivalence with a brute-force dense representation.
// ------------------------------------------------------------------

class StepFunctionRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StepFunctionRandomTest, AlgebraMatchesBruteForce) {
  util::Rng rng(GetParam());
  constexpr Tick kLimit = 30;

  auto random_fn = [&rng]() {
    StepFunction f;
    const int pieces = static_cast<int>(rng.uniform(0, 4));
    for (int i = 0; i < pieces; ++i) {
      const Tick start = rng.uniform(0, kLimit - 2);
      const Tick end = rng.uniform(start + 1, kLimit);
      f.add(TimeInterval(start, end), rng.uniform(1, 9));
    }
    return f;
  };

  const StepFunction f = random_fn();
  const StepFunction g = random_fn();

  auto dense = [](const StepFunction& fn) {
    std::map<Tick, Rate> d;
    for (Tick t = -2; t <= kLimit + 2; ++t) d[t] = fn.value_at(t);
    return d;
  };

  const auto df = dense(f);
  const auto dg = dense(g);

  const StepFunction sum = f.plus(g);
  const StepFunction diff = f.minus(g);
  const StepFunction lo = f.min(g);
  const StepFunction hi = f.max(g);

  for (Tick t = -2; t <= kLimit + 2; ++t) {
    EXPECT_EQ(sum.value_at(t), df.at(t) + dg.at(t)) << "plus t=" << t;
    EXPECT_EQ(diff.value_at(t), df.at(t) - dg.at(t)) << "minus t=" << t;
    EXPECT_EQ(lo.value_at(t), std::min(df.at(t), dg.at(t))) << "min t=" << t;
    EXPECT_EQ(hi.value_at(t), std::max(df.at(t), dg.at(t))) << "max t=" << t;
  }

  // Integral equals per-tick sum.
  Quantity brute_integral = 0;
  for (Tick t = 0; t <= kLimit; ++t) brute_integral += df.at(t);
  EXPECT_EQ(f.integral(TimeInterval(0, kLimit + 1)), brute_integral);

  // Commutativity.
  EXPECT_EQ(f.plus(g), g.plus(f));
  EXPECT_EQ(f.min(g), g.min(f));
  EXPECT_EQ(f.max(g), g.max(f));

  // earliest_cover agrees with a brute-force scan.
  const Quantity target = rng.uniform(1, 40);
  const TimeInterval window(0, kLimit);
  auto fast = f.earliest_cover(window, target);
  Quantity acc = 0;
  std::optional<Tick> brute;
  for (Tick t = window.start(); t < window.end(); ++t) {
    acc += df.at(t);
    if (acc >= target) {
      brute = t + 1;
      break;
    }
  }
  EXPECT_EQ(fast, brute) << "target=" << target;
}

INSTANTIATE_TEST_SUITE_P(Seeds, StepFunctionRandomTest,
                         ::testing::Range<std::uint64_t>(1, 49));

// ---------------------------------------------------------------------------
// Pinned half-open [start, end) edge semantics. These lock in the exact
// boundary behavior of value_at, normalize's canonical form, and combine's
// cursor advance over meeting segments, so a refactor of the merge walk
// cannot silently shift a boundary by one tick.

TEST(StepFunctionEdges, ValueAtEverySegmentBoundary) {
  // Two segments with a gap: [2,4)@3, gap [4,6), [6,8)@5.
  StepFunction f(TimeInterval(2, 4), 3);
  f.add(TimeInterval(6, 8), 5);
  EXPECT_EQ(f.value_at(1), 0);   // before support
  EXPECT_EQ(f.value_at(2), 3);   // closed at segment start
  EXPECT_EQ(f.value_at(3), 3);   // interior
  EXPECT_EQ(f.value_at(4), 0);   // open at segment end
  EXPECT_EQ(f.value_at(5), 0);   // gap interior
  EXPECT_EQ(f.value_at(6), 5);   // next segment's start
  EXPECT_EQ(f.value_at(7), 5);
  EXPECT_EQ(f.value_at(8), 0);   // open at final end
  EXPECT_EQ(f.value_at(100), 0);
}

TEST(StepFunctionEdges, ValueAtBoundaryBetweenTouchingSegments) {
  // Touching segments of different value: the tick at the boundary belongs
  // to the *later* segment (half-open intervals).
  const StepFunction g =
      StepFunction(TimeInterval(0, 3), 1).plus(StepFunction(TimeInterval(3, 6), 4));
  ASSERT_EQ(g.segments().size(), 2u);
  EXPECT_EQ(g.value_at(2), 1);
  EXPECT_EQ(g.value_at(3), 4);  // boundary tick reads the later segment

  // Touching segments of equal value are a single canonical segment, so the
  // boundary is interior and invisible.
  const StepFunction h =
      StepFunction(TimeInterval(0, 3), 1).plus(StepFunction(TimeInterval(3, 6), 1));
  ASSERT_EQ(h.segments().size(), 1u);
  EXPECT_EQ(h.value_at(3), 1);
}

TEST(StepFunctionEdges, NormalizeDropsZeroStretchesFromCombine) {
  // [0,6)@2 minus [2,4)@2 leaves a true zero stretch in the middle: the
  // canonical form stores no zero-value segment, so the support splits.
  StepFunction f(TimeInterval(0, 6), 2);
  StepFunction h = f.minus(StepFunction(TimeInterval(2, 4), 2));
  ASSERT_EQ(h.segments().size(), 2u);
  EXPECT_EQ(h.segments()[0], (Segment{TimeInterval(0, 2), 2}));
  EXPECT_EQ(h.segments()[1], (Segment{TimeInterval(4, 6), 2}));
  EXPECT_EQ(h.value_at(2), 0);
  EXPECT_EQ(h.value_at(3), 0);
  EXPECT_EQ(h.value_at(4), 2);
  // Subtracting everything yields the zero function, not a zero segment.
  EXPECT_TRUE(f.minus(f).segments().empty());
}

TEST(StepFunctionEdges, AddOfZeroRateLeavesFunctionUntouched) {
  StepFunction f(TimeInterval(0, 4), 3);
  const StepFunction before = f;
  f.add(TimeInterval(1, 3), 0);
  EXPECT_EQ(f, before);
  f.add(TimeInterval(), 7);  // empty interval contributes nothing
  EXPECT_EQ(f, before);
}

TEST(StepFunctionEdges, CombineWhereOneSegmentMeetsTheOther) {
  // a's segment *meets* b's (a.end == b.start): the cursor advance must hand
  // the boundary tick to b without overlap or gap.
  const StepFunction a(TimeInterval(0, 5), 2);
  const StepFunction b(TimeInterval(5, 9), 3);
  const StepFunction sum = a.plus(b);
  ASSERT_EQ(sum.segments().size(), 2u);
  EXPECT_EQ(sum.segments()[0], (Segment{TimeInterval(0, 5), 2}));
  EXPECT_EQ(sum.segments()[1], (Segment{TimeInterval(5, 9), 3}));
  EXPECT_EQ(sum.value_at(4), 2);
  EXPECT_EQ(sum.value_at(5), 3);
  EXPECT_EQ(sum.integral(), a.integral() + b.integral());

  // Same shape through min/max (op(0,0)==0 family).
  EXPECT_TRUE(a.min(b).is_zero());  // disjoint supports: min is 0 everywhere
  const StepFunction mx = a.max(b);
  EXPECT_EQ(mx.value_at(4), 2);
  EXPECT_EQ(mx.value_at(5), 3);

  // And reversed operand order must commute.
  EXPECT_EQ(b.plus(a), sum);
  EXPECT_EQ(b.max(a), mx);
}

TEST(StepFunctionEdges, CombineMeetingChainAgainstBruteForce) {
  // A chain of meeting segments in one operand, a straddling segment in the
  // other — every boundary checked pointwise against value_at.
  StepFunction a = StepFunction(TimeInterval(0, 3), 1)
                       .plus(StepFunction(TimeInterval(3, 6), 4))
                       .plus(StepFunction(TimeInterval(6, 9), 1));
  StepFunction b(TimeInterval(2, 7), 10);
  for (const auto* op : {"plus", "minus", "min", "max"}) {
    StepFunction c = op == std::string("plus")    ? a.plus(b)
                     : op == std::string("minus") ? a.minus(b)
                     : op == std::string("min")   ? a.min(b)
                                                  : a.max(b);
    for (Tick t = -1; t <= 10; ++t) {
      const Rate va = a.value_at(t), vb = b.value_at(t);
      const Rate expect = op == std::string("plus")    ? va + vb
                          : op == std::string("minus") ? va - vb
                          : op == std::string("min")   ? std::min(va, vb)
                                                       : std::max(va, vb);
      EXPECT_EQ(c.value_at(t), expect) << op << " at t=" << t;
    }
  }
}

TEST(StepFunctionEdges, RestrictedAtExactSegmentBoundaries) {
  StepFunction f = StepFunction(TimeInterval(0, 4), 2).plus(StepFunction(TimeInterval(4, 8), 5));
  const StepFunction r = f.restricted(TimeInterval(4, 8));
  ASSERT_EQ(r.segments().size(), 1u);
  EXPECT_EQ(r.segments()[0], (Segment{TimeInterval(4, 8), 5}));
  const StepFunction r2 = f.restricted(TimeInterval(2, 4));
  ASSERT_EQ(r2.segments().size(), 1u);
  EXPECT_EQ(r2.segments()[0], (Segment{TimeInterval(2, 4), 2}));
  EXPECT_TRUE(f.restricted(TimeInterval(8, 12)).is_zero());
}

// ---------------------------------------------------------------------------
// In-place add: the splice rewrites only the segments an update overlaps,
// widened by one neighbour on each side. These pin the edges of that window
// (coalescing into a neighbour, cancellation, gaps, the ends of the profile)
// against the full-walk plus(), whose canonical result is unique.

// f built by pieces through plus(), never through add().
StepFunction folded(std::initializer_list<Segment> pieces) {
  StepFunction f;
  for (const Segment& p : pieces) f = f.plus(StepFunction(p.interval, p.value));
  return f;
}

TEST(StepFunctionSplice, CoalescesWithAnEqualLeftNeighbour) {
  StepFunction f = folded({{TimeInterval(0, 4), 2}, {TimeInterval(4, 8), 5}});
  f.add(TimeInterval(4, 8), -3);
  EXPECT_EQ(f.to_string(), "2@[0, 8)");
}

TEST(StepFunctionSplice, CoalescesWithAnEqualRightNeighbour) {
  StepFunction f = folded({{TimeInterval(0, 4), 5}, {TimeInterval(4, 8), 2}});
  f.add(TimeInterval(0, 4), -3);
  EXPECT_EQ(f.to_string(), "2@[0, 8)");
}

TEST(StepFunctionSplice, CoalescesWithBothNeighboursInsideALongProfile) {
  StepFunction f = folded({{TimeInterval(-10, -8), 7},
                           {TimeInterval(0, 2), 2},
                           {TimeInterval(2, 4), 5},
                           {TimeInterval(4, 6), 2},
                           {TimeInterval(10, 12), 9}});
  f.add(TimeInterval(2, 4), -3);
  EXPECT_EQ(f.to_string(), "7@[-10, -8) + 2@[0, 6) + 9@[10, 12)");
}

TEST(StepFunctionSplice, TouchingTermsJoinTheFrontAndTheBack) {
  StepFunction f(TimeInterval(4, 8), 2);
  f.add(TimeInterval(8, 10), 2);  // pure append, coalesced into the back
  f.add(TimeInterval(0, 4), 2);   // touches the front
  EXPECT_EQ(f.to_string(), "2@[0, 10)");
}

TEST(StepFunctionSplice, ExactCancellationLeavesAGapThenTheZeroFunction) {
  StepFunction f = folded(
      {{TimeInterval(0, 4), 3}, {TimeInterval(4, 8), 5}, {TimeInterval(8, 12), 3}});
  f.add(TimeInterval(4, 8), -5);
  EXPECT_EQ(f.to_string(), "3@[0, 4) + 3@[8, 12)");
  f.add(TimeInterval(8, 12), -3);
  EXPECT_EQ(f.to_string(), "3@[0, 4)");
  f.add(TimeInterval(0, 4), -3);
  EXPECT_TRUE(f.is_zero());
  EXPECT_TRUE(f.segments().empty());
}

TEST(StepFunctionSplice, NegativeRatesSplitAndRejoin) {
  StepFunction f;
  f.add(TimeInterval(0, 10), -2);
  f.add(TimeInterval(3, 5), 4);
  EXPECT_EQ(f.to_string(), "-2@[0, 3) + 2@[3, 5) + -2@[5, 10)");
  f.add(TimeInterval(3, 5), -4);
  EXPECT_EQ(f.to_string(), "-2@[0, 10)");
}

TEST(StepFunctionSplice, TermsInAGapBeforeTheFirstAndAfterTheLast) {
  StepFunction f = folded({{TimeInterval(0, 2), 1}, {TimeInterval(10, 12), 1}});
  f.add(TimeInterval(4, 6), 3);
  EXPECT_EQ(f.to_string(), "1@[0, 2) + 3@[4, 6) + 1@[10, 12)");
  f.add(TimeInterval(-5, -3), 4);
  EXPECT_EQ(f.to_string(), "4@[-5, -3) + 1@[0, 2) + 3@[4, 6) + 1@[10, 12)");
  f.add(TimeInterval(20, 22), 6);
  EXPECT_EQ(f.to_string(),
            "4@[-5, -3) + 1@[0, 2) + 3@[4, 6) + 1@[10, 12) + 6@[20, 22)");
}

TEST(StepFunctionSplice, TermCoveringEverything) {
  const StepFunction base = folded(
      {{TimeInterval(0, 2), 1}, {TimeInterval(2, 5), -3}, {TimeInterval(9, 12), 4}});
  StepFunction f = base;
  f.add(TimeInterval(-100, 100), 3);
  EXPECT_EQ(f, base.plus(StepFunction(TimeInterval(-100, 100), 3)));
  EXPECT_EQ(f.to_string(), "3@[-100, 0) + 4@[0, 2) + 3@[5, 9) + 7@[9, 12) + 3@[12, 100)");
  EXPECT_EQ(fuzz::check_canonical(f), std::nullopt);
}

TEST(StepFunctionSplice, EmptyAndZeroUpdatesAreNoOps) {
  const StepFunction base = folded({{TimeInterval(0, 4), 3}, {TimeInterval(6, 9), 1}});
  StepFunction f = base;
  f.add(StepFunction());
  f.add(StepFunction(TimeInterval(2, 2), 5));
  f.add(TimeInterval(1, 7), 0);
  f.add(TimeInterval(), 4);
  EXPECT_EQ(f, base);
  StepFunction zero;
  zero.add(StepFunction());
  zero.add(TimeInterval(3, 3), 1);
  EXPECT_TRUE(zero.is_zero());
}

TEST(StepFunctionSplice, AddingAProfileToItselfDoublesIt) {
  const StepFunction base = folded({{TimeInterval(0, 4), 3}, {TimeInterval(6, 9), -1}});
  StepFunction f = base;
  f.add(f);
  EXPECT_EQ(f, base.plus(base));
}

// In-place adds of N random terms, and of random multi-segment profiles,
// equal the fold of plus() and stay canonical after every step.
class StepFunctionSpliceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StepFunctionSpliceProperty, InPlaceAddEqualsTheFoldOfPlus) {
  util::Rng rng(GetParam());
  StepFunction in_place, fold;
  const int terms = static_cast<int>(rng.uniform(1, 160));
  for (int i = 0; i < terms; ++i) {
    const Tick start = rng.uniform(-40, 200);
    const TimeInterval iv(start, start + rng.uniform(0, 24));
    const Rate rate = rng.uniform(-6, 6);
    in_place.add(iv, rate);
    fold = fold.plus(StepFunction(iv, rate));
    ASSERT_EQ(in_place, fold) << "after term " << i << " " << iv.to_string() << "@" << rate;
    ASSERT_EQ(fuzz::check_canonical(in_place), std::nullopt) << "after term " << i;
  }
  fuzz::Gen gen(GetParam());
  for (int i = 0; i < 8; ++i) {
    const StepFunction update = gen.step_function(6, true).first.shifted(rng.uniform(-40, 200));
    in_place.add(update);
    fold = fold.plus(update);
    ASSERT_EQ(in_place, fold) << "after profile " << i << " " << update.to_string();
    ASSERT_EQ(fuzz::check_canonical(in_place), std::nullopt) << "after profile " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StepFunctionSpliceProperty,
                         ::testing::Range<std::uint64_t>(1, 65));

}  // namespace
}  // namespace rota
