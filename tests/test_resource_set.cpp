#include "rota/resource/resource_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "rota/fuzz/reference.hpp"
#include "rota/util/rng.hpp"

namespace rota {
namespace {

class ResourceSetTest : public ::testing::Test {
 protected:
  Location l1{"rs-l1"};
  Location l2{"rs-l2"};
  LocatedType cpu1 = LocatedType::cpu(l1);
  LocatedType net12 = LocatedType::network(l1, l2);
};

TEST_F(ResourceSetTest, EmptyByDefault) {
  ResourceSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.term_count(), 0u);
  EXPECT_TRUE(s.availability(cpu1).is_zero());
}

// ------------------------------------------------------------------
// The paper's §III worked examples, verbatim.
// ------------------------------------------------------------------

TEST_F(ResourceSetTest, PaperExampleOneDistinctTypesStaySeparate) {
  // {5}^(0,3)_<cpu,l1> ∪ {5}^(0,5)_<network,l1→l2>: nothing aggregates.
  ResourceSet s;
  s.add(5, TimeInterval(0, 3), cpu1);
  s.add(5, TimeInterval(0, 5), net12);
  EXPECT_EQ(s.term_count(), 2u);
  EXPECT_EQ(s.quantity(cpu1, TimeInterval(0, 10)), 15);
  EXPECT_EQ(s.quantity(net12, TimeInterval(0, 10)), 25);
}

TEST_F(ResourceSetTest, PaperExampleTwoOverlapAggregates) {
  // {5}^(0,3)_<cpu,l1> ∪ {5}^(0,5)_<cpu,l1> = {10}^(0,3), {5}^(3,5).
  ResourceSet s;
  s.add(5, TimeInterval(0, 3), cpu1);
  s.add(5, TimeInterval(0, 5), cpu1);
  auto terms = s.terms();
  ASSERT_EQ(terms.size(), 2u);
  EXPECT_EQ(terms[0], ResourceTerm(10, TimeInterval(0, 3), cpu1));
  EXPECT_EQ(terms[1], ResourceTerm(5, TimeInterval(3, 5), cpu1));
}

TEST_F(ResourceSetTest, PaperExampleThreeRelativeComplement) {
  // {5}^(0,3)_<cpu,l1> \ {3}^(1,2)_<cpu,l1> = {5}^(0,1), {2}^(1,2), {5}^(2,3).
  ResourceSet theta1;
  theta1.add(5, TimeInterval(0, 3), cpu1);
  ResourceSet theta2;
  theta2.add(3, TimeInterval(1, 2), cpu1);

  auto diff = theta1.relative_complement(theta2);
  ASSERT_TRUE(diff.has_value());
  auto terms = diff->terms();
  ASSERT_EQ(terms.size(), 3u);
  EXPECT_EQ(terms[0], ResourceTerm(5, TimeInterval(0, 1), cpu1));
  EXPECT_EQ(terms[1], ResourceTerm(2, TimeInterval(1, 2), cpu1));
  EXPECT_EQ(terms[2], ResourceTerm(5, TimeInterval(2, 3), cpu1));
}

// ------------------------------------------------------------------
// Simplification behaviour.
// ------------------------------------------------------------------

TEST_F(ResourceSetTest, MeetingEqualRatesReduceTermCount) {
  // "Resource terms can reduce in number if two identical located type
  // resources with identical rates have time intervals that meet."
  ResourceSet s;
  s.add(4, TimeInterval(0, 3), cpu1);
  s.add(4, TimeInterval(3, 7), cpu1);
  EXPECT_EQ(s.term_count(), 1u);
  EXPECT_EQ(s.terms()[0], ResourceTerm(4, TimeInterval(0, 7), cpu1));
}

TEST_F(ResourceSetTest, NullTermsIgnored) {
  ResourceSet s;
  s.add(ResourceTerm(0, TimeInterval(0, 3), cpu1));
  s.add(ResourceTerm(5, TimeInterval(), cpu1));
  EXPECT_TRUE(s.empty());
}

TEST_F(ResourceSetTest, UnionedIsCommutative) {
  ResourceSet a;
  a.add(5, TimeInterval(0, 3), cpu1);
  a.add(2, TimeInterval(1, 6), net12);
  ResourceSet b;
  b.add(1, TimeInterval(2, 9), cpu1);
  EXPECT_EQ(a.unioned(b), b.unioned(a));
}

TEST_F(ResourceSetTest, TermsAreCanonical) {
  ResourceSet s;
  s.add(5, TimeInterval(0, 3), cpu1);
  s.add(3, TimeInterval(2, 6), cpu1);
  s.add(2, TimeInterval(4, 8), cpu1);
  auto terms = s.terms();
  // Segments per type must be ordered, non-overlapping and maximal.
  for (std::size_t i = 1; i < terms.size(); ++i) {
    EXPECT_LE(terms[i - 1].interval().end(), terms[i].interval().start());
  }
  EXPECT_EQ(s.quantity(cpu1, TimeInterval(0, 8)), 15 + 12 + 8);
}

// ------------------------------------------------------------------
// Relative complement definedness.
// ------------------------------------------------------------------

TEST_F(ResourceSetTest, RelativeComplementUndefinedWhenNotDominated) {
  ResourceSet theta1;
  theta1.add(5, TimeInterval(0, 3), cpu1);
  ResourceSet theta2;
  theta2.add(6, TimeInterval(1, 2), cpu1);  // rate exceeds availability
  EXPECT_FALSE(theta1.relative_complement(theta2).has_value());
}

TEST_F(ResourceSetTest, RelativeComplementUndefinedOutsideInterval) {
  ResourceSet theta1;
  theta1.add(5, TimeInterval(0, 3), cpu1);
  ResourceSet theta2;
  theta2.add(1, TimeInterval(2, 5), cpu1);  // extends past availability
  EXPECT_FALSE(theta1.relative_complement(theta2).has_value());
}

TEST_F(ResourceSetTest, RelativeComplementUndefinedForMissingType) {
  ResourceSet theta1;
  theta1.add(5, TimeInterval(0, 3), cpu1);
  ResourceSet theta2;
  theta2.add(1, TimeInterval(0, 2), net12);
  EXPECT_FALSE(theta1.relative_complement(theta2).has_value());
}

TEST_F(ResourceSetTest, RelativeComplementExactDrainRemovesType) {
  ResourceSet theta1;
  theta1.add(5, TimeInterval(0, 3), cpu1);
  ResourceSet theta2;
  theta2.add(5, TimeInterval(0, 3), cpu1);
  auto diff = theta1.relative_complement(theta2);
  ASSERT_TRUE(diff.has_value());
  EXPECT_TRUE(diff->empty());
}

TEST_F(ResourceSetTest, UnionThenComplementRoundTrips) {
  ResourceSet base;
  base.add(5, TimeInterval(0, 10), cpu1);
  ResourceSet extra;
  extra.add(3, TimeInterval(2, 6), cpu1);
  extra.add(4, TimeInterval(0, 4), net12);
  auto diff = base.unioned(extra).relative_complement(extra);
  ASSERT_TRUE(diff.has_value());
  EXPECT_EQ(*diff, base);
}

// ------------------------------------------------------------------
// Domination, satisfaction and restriction.
// ------------------------------------------------------------------

TEST_F(ResourceSetTest, Dominates) {
  ResourceSet big;
  big.add(5, TimeInterval(0, 10), cpu1);
  ResourceSet small;
  small.add(3, TimeInterval(2, 8), cpu1);
  EXPECT_TRUE(big.dominates(small));
  EXPECT_FALSE(small.dominates(big));
  EXPECT_TRUE(big.dominates(big));
  EXPECT_TRUE(big.dominates(ResourceSet{}));
}

TEST_F(ResourceSetTest, SatisfiesDemandWithinWindow) {
  ResourceSet s;
  s.add(5, TimeInterval(0, 4), cpu1);
  DemandSet d;
  d.add(cpu1, 18);
  EXPECT_TRUE(s.satisfies(d, TimeInterval(0, 4)));   // 20 available
  EXPECT_FALSE(s.satisfies(d, TimeInterval(0, 3)));  // only 15
  d.add(net12, 1);
  EXPECT_FALSE(s.satisfies(d, TimeInterval(0, 4)));  // no network at all
}

TEST_F(ResourceSetTest, Restricted) {
  ResourceSet s;
  s.add(5, TimeInterval(0, 10), cpu1);
  s.add(2, TimeInterval(0, 2), net12);
  ResourceSet r = s.restricted(TimeInterval(4, 6));
  EXPECT_EQ(r.quantity(cpu1, TimeInterval(0, 100)), 10);
  EXPECT_EQ(r.quantity(net12, TimeInterval(0, 100)), 0);
}

TEST_F(ResourceSetTest, DropBeforeDropsThePast) {
  ResourceSet s;
  s.add(5, TimeInterval(0, 10), cpu1);
  s.add(2, TimeInterval(0, 4), net12);
  s.drop_before(6);
  EXPECT_EQ(s.quantity(cpu1, TimeInterval(0, 100)), 20);
  // A type with nothing left is gone, not kept as a zero profile.
  EXPECT_EQ(s.types(), std::vector<LocatedType>{cpu1});
  s.drop_before(10);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s, ResourceSet{});
}

TEST_F(ResourceSetTest, Horizon) {
  ResourceSet s;
  EXPECT_FALSE(s.horizon().has_value());
  s.add(5, TimeInterval(0, 10), cpu1);
  s.add(2, TimeInterval(3, 15), net12);
  EXPECT_EQ(s.horizon(), 15);
}

TEST_F(ResourceSetTest, TypesListsDistinctTypes) {
  ResourceSet s;
  s.add(5, TimeInterval(0, 10), cpu1);
  s.add(5, TimeInterval(4, 6), cpu1);
  s.add(2, TimeInterval(3, 15), net12);
  EXPECT_EQ(s.types().size(), 2u);
}

TEST_F(ResourceSetTest, ToStringListsTerms) {
  ResourceSet s;
  s.add(5, TimeInterval(0, 3), cpu1);
  EXPECT_EQ(s.to_string(), "{[5]^[0, 3)_<cpu, rs-l1>}");
}

TEST_F(ResourceSetTest, InitializerListConstruction) {
  ResourceSet s{ResourceTerm(5, TimeInterval(0, 3), cpu1),
                ResourceTerm(5, TimeInterval(0, 5), cpu1)};
  EXPECT_EQ(s.term_count(), 2u);  // aggregated into 10@[0,3) + 5@[3,5)
  EXPECT_EQ(s.availability(cpu1).value_at(1), 10);
}

// ------------------------------------------------------------------
// rota_fuzz calculus-oracle regressions: relative_complement must be
// defined exactly when dominates() holds, including for negative
// profiles on types only one side mentions (minimized from case seeds
// 821782182278964366 and 14171202208520579826).
// ------------------------------------------------------------------

TEST_F(ResourceSetTest, ComplementDefinedOverNegativeProfileOfAbsentType) {
  // b carries a strictly negative profile for a type a never mentions. a's
  // implicit zero availability dominates it, so the complement must be
  // defined and carry the positive difference 0 - b.
  ResourceSet a;
  a.add(5, TimeInterval(0, 3), cpu1);
  StepFunction debt;
  debt.add(TimeInterval(0, 2), -3);
  ResourceSet b;
  b.add(net12, debt);

  EXPECT_TRUE(a.dominates(b));
  auto diff = a.relative_complement(b);
  ASSERT_TRUE(diff.has_value());
  EXPECT_EQ(diff->availability(net12).value_at(1), 3);
  EXPECT_EQ(diff->availability(cpu1).value_at(1), 5);
  EXPECT_EQ(diff->unioned(b), a);
}

TEST_F(ResourceSetTest, ComplementRejectsPositiveProfileOfOtherOnlyType) {
  // b asks for a type a never mentions: a's implicit zero cannot cover a
  // positive rate, even though a is rich in every type it does hold.
  ResourceSet a;
  a.add(50, TimeInterval(0, 10), cpu1);
  ResourceSet b;
  b.add(1, TimeInterval(0, 10), cpu1);
  b.add(1, TimeInterval(4, 5), net12);

  EXPECT_FALSE(a.dominates(b));
  EXPECT_FALSE(a.relative_complement(b).has_value());
}

TEST_F(ResourceSetTest, NegativeProfileOfOwnOnlyTypeBreaksDominance) {
  // a holds a negative profile for a type b never mentions. Pointwise that
  // reads a < 0 = b, so dominance fails and the complement is undefined —
  // it could only produce a negative "availability".
  ResourceSet a;
  a.add(5, TimeInterval(0, 3), cpu1);
  StepFunction debt;
  debt.add(TimeInterval(0, 2), -2);
  a.add(net12, debt);
  ResourceSet b;
  b.add(1, TimeInterval(0, 3), cpu1);

  EXPECT_FALSE(a.dominates(b));
  EXPECT_FALSE(a.relative_complement(b).has_value());
}

TEST_F(ResourceSetTest, ExactCancellationDropsTheEntry) {
  // Opposite-sign profiles that cancel exactly must not leave a stored
  // zero profile behind — stored zeros break operator== against the
  // canonically built equivalent (rota_fuzz calculus-oracle regression).
  StepFunction up;
  up.add(TimeInterval(0, 4), 3);
  StepFunction down;
  down.add(TimeInterval(0, 4), -3);

  ResourceSet a;
  a.add(net12, up);
  ResourceSet b;
  b.add(net12, down);
  b.add(2, TimeInterval(0, 5), cpu1);

  const ResourceSet merged = a.unioned(b);
  EXPECT_EQ(merged.types().size(), 1u);  // net12 cancelled away
  ResourceSet expected;
  expected.add(2, TimeInterval(0, 5), cpu1);
  EXPECT_EQ(merged, expected);

  ResourceSet in_place = a;
  in_place.union_with(b);
  EXPECT_EQ(in_place, expected);

  // add(type, profile) and add(term) cancellation paths.
  ResourceSet c;
  c.add(net12, down);
  c.add(net12, up);
  EXPECT_TRUE(c.empty());
  EXPECT_TRUE(c.types().empty());
  c.add(net12, down);
  c.add(ResourceTerm(3, TimeInterval(0, 4), net12));
  EXPECT_TRUE(c.types().empty());
}

TEST_F(ResourceSetTest, ComplementIffDominatesAtBoundaries) {
  // The invariant pinned across representative boundary shapes: empties,
  // self, meets-adjacent segments, touching intervals, partial overlap.
  ResourceSet empty;
  ResourceSet meets;  // 5@[0,3) then 5@[3,6) — coalesces to 5@[0,6)
  meets.add(5, TimeInterval(0, 3), cpu1);
  meets.add(5, TimeInterval(3, 6), cpu1);
  ResourceSet flat;
  flat.add(5, TimeInterval(0, 6), cpu1);
  ResourceSet touching;  // overlaps [2,4) against flat's [0,3) prefix
  touching.add(5, TimeInterval(2, 4), cpu1);
  ResourceSet prefix;
  prefix.add(5, TimeInterval(0, 3), cpu1);

  const ResourceSet all[] = {empty, meets, flat, touching, prefix};
  for (const ResourceSet& x : all) {
    for (const ResourceSet& y : all) {
      EXPECT_EQ(x.relative_complement(y).has_value(), x.dominates(y))
          << "x = " << x.to_string() << ", y = " << y.to_string();
    }
  }

  // Meets-adjacent segments are the same set as their coalesced form.
  EXPECT_EQ(meets, flat);
  auto none = meets.relative_complement(flat);
  ASSERT_TRUE(none.has_value());
  EXPECT_TRUE(none->empty());
  // Touching-but-overhanging windows are not dominated.
  EXPECT_FALSE(prefix.relative_complement(touching).has_value());
}

// ---------------------------------------------------------------------------
// Union by in-place splice: add(term), add(type, profile) and union_with all
// add into the stored profile of each type, creating and erasing entries.

TEST_F(ResourceSetTest, TermThatCancelsASegmentKeepsTheRestOfTheType) {
  ResourceSet s;
  s.add(3, TimeInterval(0, 4), cpu1);
  s.add(5, TimeInterval(4, 8), cpu1);
  StepFunction drain;
  drain.add(TimeInterval(4, 8), -5);
  s.add(cpu1, drain);
  EXPECT_EQ(s.availability(cpu1).to_string(), "3@[0, 4)");
  EXPECT_EQ(s.types().size(), 1u);
}

TEST_F(ResourceSetTest, TermThatEmptiesATypeErasesTheEntry) {
  ResourceSet s;
  s.add(2, TimeInterval(0, 5), net12);
  s.add(cpu1, StepFunction(TimeInterval(0, 4), -3));
  s.add(ResourceTerm(3, TimeInterval(0, 4), cpu1));
  EXPECT_EQ(s.types(), std::vector<LocatedType>{net12});
  EXPECT_EQ(fuzz::check_canonical(s), std::nullopt);
  ResourceSet expected;
  expected.add(2, TimeInterval(0, 5), net12);
  EXPECT_EQ(s, expected);
}

TEST_F(ResourceSetTest, UnionWithInsertsNewTypesInOrderAndAddsShared) {
  const LocatedType cpu2 = LocatedType::cpu(l2);
  const LocatedType mem1 = LocatedType::memory(l1);
  ResourceSet a;
  a.add(1, TimeInterval(0, 4), cpu1);
  a.add(1, TimeInterval(0, 4), net12);
  ResourceSet b;
  b.add(2, TimeInterval(2, 6), cpu1);
  b.add(4, TimeInterval(0, 1), cpu2);
  b.add(5, TimeInterval(0, 1), mem1);
  ResourceSet in_place = a;
  in_place.union_with(b);
  EXPECT_EQ(fuzz::check_canonical(in_place), std::nullopt);
  EXPECT_EQ(in_place.types().size(), 4u);
  EXPECT_EQ(in_place.availability(cpu1).to_string(), "1@[0, 2) + 3@[2, 4) + 2@[4, 6)");
  EXPECT_EQ(in_place, a.unioned(b));
  EXPECT_EQ(in_place, b.unioned(a));
  EXPECT_EQ(ResourceSet(a).unioned(b), in_place);  // the rvalue overload
}

TEST_F(ResourceSetTest, UnionWithItselfDoubles) {
  ResourceSet s;
  s.add(2, TimeInterval(0, 5), cpu1);
  s.add(cpu1, StepFunction(TimeInterval(6, 8), -1));
  s.add(3, TimeInterval(1, 2), net12);
  ResourceSet doubled = s;
  doubled.union_with(doubled);
  EXPECT_EQ(doubled.availability(cpu1), s.availability(cpu1).plus(s.availability(cpu1)));
  EXPECT_EQ(doubled.availability(net12).to_string(), "6@[1, 2)");
}

// Random terms over 8 types (negative profiles through add(type, profile)):
// the spliced set equals, type by type, the fold of plus() and stays
// canonical; union_with of two such sets equals their per-type sums.
class ResourceSetSpliceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ResourceSetSpliceProperty, SplicedUnionEqualsTheFoldOfPlus) {
  util::Rng rng(GetParam());
  std::vector<LocatedType> pool;
  for (int i = 0; i < 4; ++i) {
    const Location at("rs-p" + std::to_string(i));
    pool.push_back(LocatedType::cpu(at));
    pool.push_back(LocatedType::memory(at));
  }
  auto build = [&](ResourceSet& set, std::map<LocatedType, StepFunction>& fold) {
    const int terms = static_cast<int>(rng.uniform(1, 200));
    for (int i = 0; i < terms; ++i) {
      const LocatedType& type = pool[rng.index(pool.size())];
      const Tick start = rng.uniform(0, 300);
      const TimeInterval iv(start, start + rng.uniform(1, 20));
      if (rng.chance(0.2)) {
        const Rate rate = rng.uniform(-4, -1);
        set.add(type, StepFunction(iv, rate));
        fold[type] = fold[type].plus(StepFunction(iv, rate));
      } else {
        const Rate rate = rng.uniform(1, 6);
        set.add(rate, iv, type);
        fold[type] = fold[type].plus(StepFunction(iv, rate));
      }
    }
  };
  ResourceSet a, b;
  std::map<LocatedType, StepFunction> fa, fb;
  build(a, fa);
  build(b, fb);
  ASSERT_EQ(fuzz::check_canonical(a), std::nullopt);
  for (const LocatedType& type : pool) {
    EXPECT_EQ(a.availability(type), fa[type]) << type.to_string();
  }
  ResourceSet joined = a;
  joined.union_with(b);
  ASSERT_EQ(fuzz::check_canonical(joined), std::nullopt);
  for (const LocatedType& type : pool) {
    EXPECT_EQ(joined.availability(type), fa[type].plus(fb[type])) << type.to_string();
  }
  EXPECT_EQ(joined, a.unioned(b));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResourceSetSpliceProperty,
                         ::testing::Range<std::uint64_t>(1, 65));

}  // namespace
}  // namespace rota
