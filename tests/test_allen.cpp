#include "rota/time/allen.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <stdexcept>
#include <vector>

namespace rota {
namespace {

// ------------------------------------------------------------------
// Table I: the thirteen base relations on canonical interval pairs.
// ------------------------------------------------------------------

struct RelationCase {
  TimeInterval a;
  TimeInterval b;
  AllenRelation expected;
};

// Names each case after its content ("{0,2} before {4,6}"); without a
// printer gtest dumps the struct's bytes, padding included, so the ctest
// names would change from build to build.
void PrintTo(const RelationCase& c, std::ostream* os) {
  *os << '{' << c.a.start() << ',' << c.a.end() << "} " << allen_name(c.expected)
      << " {" << c.b.start() << ',' << c.b.end() << '}';
}

class AllenRelationTest : public ::testing::TestWithParam<RelationCase> {};

TEST_P(AllenRelationTest, ComputesExpectedRelation) {
  const auto& c = GetParam();
  EXPECT_EQ(allen_relation(c.a, c.b), c.expected);
}

TEST_P(AllenRelationTest, SwappedArgumentsGiveInverse) {
  const auto& c = GetParam();
  EXPECT_EQ(allen_relation(c.b, c.a), inverse(c.expected));
}

INSTANTIATE_TEST_SUITE_P(
    TableOne, AllenRelationTest,
    ::testing::Values(
        RelationCase{{0, 2}, {4, 6}, AllenRelation::kBefore},
        RelationCase{{4, 6}, {0, 2}, AllenRelation::kAfter},
        RelationCase{{0, 3}, {3, 6}, AllenRelation::kMeets},
        RelationCase{{3, 6}, {0, 3}, AllenRelation::kMetBy},
        RelationCase{{0, 4}, {2, 6}, AllenRelation::kOverlaps},
        RelationCase{{2, 6}, {0, 4}, AllenRelation::kOverlappedBy},
        RelationCase{{0, 2}, {0, 6}, AllenRelation::kStarts},
        RelationCase{{0, 6}, {0, 2}, AllenRelation::kStartedBy},
        RelationCase{{2, 4}, {0, 6}, AllenRelation::kDuring},
        RelationCase{{0, 6}, {2, 4}, AllenRelation::kContains},
        RelationCase{{4, 6}, {0, 6}, AllenRelation::kFinishes},
        RelationCase{{0, 6}, {4, 6}, AllenRelation::kFinishedBy},
        RelationCase{{1, 5}, {1, 5}, AllenRelation::kEquals}));

TEST(Allen, EmptyIntervalThrows) {
  EXPECT_THROW(allen_relation(TimeInterval(), TimeInterval(0, 2)),
               std::invalid_argument);
  EXPECT_THROW(allen_relation(TimeInterval(0, 2), TimeInterval()),
               std::invalid_argument);
}

TEST(Allen, ExhaustiveInverseProperty) {
  // For every pair of intervals with endpoints in a small window, the
  // relation of (b, a) is the inverse of the relation of (a, b).
  std::vector<TimeInterval> ivs;
  for (Tick s = 0; s < 6; ++s) {
    for (Tick e = s + 1; e <= 6; ++e) ivs.emplace_back(s, e);
  }
  for (const auto& a : ivs) {
    for (const auto& b : ivs) {
      EXPECT_EQ(inverse(allen_relation(a, b)), allen_relation(b, a))
          << a.to_string() << " vs " << b.to_string();
    }
  }
}

TEST(Allen, InverseIsInvolution) {
  for (AllenRelation r : all_allen_relations()) {
    EXPECT_EQ(inverse(inverse(r)), r);
  }
}

TEST(Allen, EqualsIsSelfInverse) {
  EXPECT_EQ(inverse(AllenRelation::kEquals), AllenRelation::kEquals);
}

TEST(Allen, ExactlyOneRelationHolds) {
  // Relations partition the space of non-empty interval pairs.
  std::vector<TimeInterval> ivs;
  for (Tick s = 0; s < 5; ++s) {
    for (Tick e = s + 1; e <= 5; ++e) ivs.emplace_back(s, e);
  }
  for (const auto& a : ivs) {
    for (const auto& b : ivs) {
      // allen_relation is a total function over non-empty pairs; check that
      // its value is one of the 13 (no throw, valid enum).
      const auto r = allen_relation(a, b);
      EXPECT_LT(static_cast<unsigned>(r), static_cast<unsigned>(kNumAllenRelations));
    }
  }
}

TEST(Allen, SymbolsAreUniqueAndNamed) {
  std::vector<std::string> symbols;
  for (AllenRelation r : all_allen_relations()) {
    symbols.push_back(allen_symbol(r));
    EXPECT_FALSE(allen_name(r).empty());
  }
  std::sort(symbols.begin(), symbols.end());
  EXPECT_EQ(std::unique(symbols.begin(), symbols.end()), symbols.end());
}

// ------------------------------------------------------------------
// Predicates mirroring the paper's vocabulary.
// ------------------------------------------------------------------

TEST(AllenPredicates, Before) {
  EXPECT_TRUE(before(TimeInterval(0, 2), TimeInterval(5, 7)));
  EXPECT_FALSE(before(TimeInterval(0, 5), TimeInterval(5, 7)));  // that's meets
}

TEST(AllenPredicates, Meets) {
  EXPECT_TRUE(meets(TimeInterval(0, 5), TimeInterval(5, 7)));
  EXPECT_FALSE(meets(TimeInterval(0, 4), TimeInterval(5, 7)));
}

TEST(AllenPredicates, Overlaps) {
  EXPECT_TRUE(overlaps(TimeInterval(0, 5), TimeInterval(3, 8)));
  EXPECT_FALSE(overlaps(TimeInterval(3, 8), TimeInterval(0, 5)));  // overlapped-by
}

TEST(AllenPredicates, StartsIncludesEquals) {
  EXPECT_TRUE(starts(TimeInterval(0, 3), TimeInterval(0, 8)));
  EXPECT_TRUE(starts(TimeInterval(0, 8), TimeInterval(0, 8)));
  EXPECT_FALSE(starts(TimeInterval(0, 8), TimeInterval(0, 3)));
}

TEST(AllenPredicates, WithinIsInclusiveDuring) {
  // The paper's domination order uses "τ2 during τ1" inclusively.
  EXPECT_TRUE(within(TimeInterval(2, 4), TimeInterval(0, 6)));
  EXPECT_TRUE(within(TimeInterval(0, 6), TimeInterval(0, 6)));
  EXPECT_TRUE(within(TimeInterval(0, 3), TimeInterval(0, 6)));   // starts
  EXPECT_TRUE(within(TimeInterval(3, 6), TimeInterval(0, 6)));   // finishes
  EXPECT_FALSE(within(TimeInterval(0, 7), TimeInterval(0, 6)));
}

TEST(AllenPredicates, FinishesIncludesEquals) {
  EXPECT_TRUE(finishes(TimeInterval(5, 8), TimeInterval(0, 8)));
  EXPECT_TRUE(finishes(TimeInterval(0, 8), TimeInterval(0, 8)));
  EXPECT_FALSE(finishes(TimeInterval(0, 8), TimeInterval(5, 8)));
}

// ------------------------------------------------------------------
// Relation sets.
// ------------------------------------------------------------------

TEST(AllenRelationSet, EmptyAndAll) {
  EXPECT_TRUE(AllenRelationSet::none().empty());
  EXPECT_EQ(AllenRelationSet::all().size(), kNumAllenRelations);
}

TEST(AllenRelationSet, InsertEraseContains) {
  AllenRelationSet s;
  s.insert(AllenRelation::kMeets);
  s.insert(AllenRelation::kBefore);
  EXPECT_TRUE(s.contains(AllenRelation::kMeets));
  EXPECT_TRUE(s.contains(AllenRelation::kBefore));
  EXPECT_FALSE(s.contains(AllenRelation::kAfter));
  EXPECT_EQ(s.size(), 2);
  s.erase(AllenRelation::kMeets);
  EXPECT_FALSE(s.contains(AllenRelation::kMeets));
  EXPECT_EQ(s.size(), 1);
}

TEST(AllenRelationSet, SetOperations) {
  AllenRelationSet a(AllenRelation::kBefore);
  AllenRelationSet b(AllenRelation::kMeets);
  EXPECT_EQ((a | b).size(), 2);
  EXPECT_TRUE((a & b).empty());
  EXPECT_EQ((a | b) & a, a);
}

TEST(AllenRelationSet, Inverted) {
  AllenRelationSet s(AllenRelation::kBefore);
  s.insert(AllenRelation::kDuring);
  AllenRelationSet inv = s.inverted();
  EXPECT_TRUE(inv.contains(AllenRelation::kAfter));
  EXPECT_TRUE(inv.contains(AllenRelation::kContains));
  EXPECT_EQ(inv.size(), 2);
  EXPECT_EQ(inv.inverted(), s);
}

TEST(AllenRelationSet, ToString) {
  AllenRelationSet s(AllenRelation::kBefore);
  EXPECT_EQ(s.to_string(), "{<}");
}

// ------------------------------------------------------------------
// The composition table (derived by enumeration).
// ------------------------------------------------------------------

TEST(AllenComposition, EqualsIsIdentity) {
  for (AllenRelation r : all_allen_relations()) {
    EXPECT_EQ(compose(AllenRelation::kEquals, r), AllenRelationSet(r));
    EXPECT_EQ(compose(r, AllenRelation::kEquals), AllenRelationSet(r));
  }
}

TEST(AllenComposition, BeforeBeforeIsBefore) {
  EXPECT_EQ(compose(AllenRelation::kBefore, AllenRelation::kBefore),
            AllenRelationSet(AllenRelation::kBefore));
}

TEST(AllenComposition, AfterAfterIsAfter) {
  EXPECT_EQ(compose(AllenRelation::kAfter, AllenRelation::kAfter),
            AllenRelationSet(AllenRelation::kAfter));
}

TEST(AllenComposition, MeetsBeforeIsBefore) {
  EXPECT_EQ(compose(AllenRelation::kMeets, AllenRelation::kBefore),
            AllenRelationSet(AllenRelation::kBefore));
}

TEST(AllenComposition, DuringDuringIsDuring) {
  EXPECT_EQ(compose(AllenRelation::kDuring, AllenRelation::kDuring),
            AllenRelationSet(AllenRelation::kDuring));
}

TEST(AllenComposition, BeforeAfterIsUniversal) {
  // A before B and B after C leaves A and C completely unconstrained.
  EXPECT_EQ(compose(AllenRelation::kBefore, AllenRelation::kAfter),
            AllenRelationSet::all());
}

TEST(AllenComposition, MeetsMetByHasThreeOutcomes) {
  // A meets B, B met-by C: A and C share... A ends where B starts, C ends
  // where B starts: so A and C end at the same point — f, fi, or =.
  AllenRelationSet expected;
  expected.insert(AllenRelation::kFinishes);
  expected.insert(AllenRelation::kFinishedBy);
  expected.insert(AllenRelation::kEquals);
  EXPECT_EQ(compose(AllenRelation::kMeets, AllenRelation::kMetBy), expected);
}

TEST(AllenComposition, SoundOnConcreteTriples) {
  // For all concrete triples in a window, the actual relation(a, c) must be
  // a member of compose(relation(a,b), relation(b,c)).
  std::vector<TimeInterval> ivs;
  for (Tick s = 0; s < 6; ++s) {
    for (Tick e = s + 1; e <= 6; ++e) ivs.emplace_back(s, e);
  }
  for (const auto& a : ivs) {
    for (const auto& b : ivs) {
      const auto r1 = allen_relation(a, b);
      for (const auto& c : ivs) {
        const auto r2 = allen_relation(b, c);
        EXPECT_TRUE(compose(r1, r2).contains(allen_relation(a, c)))
            << a.to_string() << ' ' << b.to_string() << ' ' << c.to_string();
      }
    }
  }
}

TEST(AllenComposition, InverseDistributesOverComposition) {
  // (r1 ∘ r2)⁻¹ == r2⁻¹ ∘ r1⁻¹
  for (AllenRelation r1 : all_allen_relations()) {
    for (AllenRelation r2 : all_allen_relations()) {
      EXPECT_EQ(compose(r1, r2).inverted(), compose(inverse(r2), inverse(r1)));
    }
  }
}

TEST(AllenComposition, SetCompositionIsUnionOfMembers) {
  AllenRelationSet s1(AllenRelation::kBefore);
  s1.insert(AllenRelation::kMeets);
  AllenRelationSet s2(AllenRelation::kBefore);
  EXPECT_EQ(compose(s1, s2), compose(AllenRelation::kBefore, AllenRelation::kBefore) |
                                 compose(AllenRelation::kMeets, AllenRelation::kBefore));
}

TEST(AllenComposition, NoCellIsEmpty) {
  for (AllenRelation r1 : all_allen_relations()) {
    for (AllenRelation r2 : all_allen_relations()) {
      EXPECT_FALSE(compose(r1, r2).empty())
          << allen_name(r1) << " o " << allen_name(r2);
    }
  }
}

}  // namespace
}  // namespace rota
