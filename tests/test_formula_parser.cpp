#include "rota/io/formula_parser.hpp"

#include <gtest/gtest.h>

#include "rota/logic/model_checker.hpp"

namespace rota {
namespace {

class FormulaParserTest : public ::testing::Test {
 protected:
  CostModel phi;
  Scenario scenario = parse_scenario_string(R"(
supply cpu l1 4 0 60
computation job1 0 10
  actor a l1
    evaluate 1
end
computation huge 0 10
  actor b l1
    evaluate 20
end
)");
};

TEST_F(FormulaParserTest, Atoms) {
  EXPECT_EQ(parse_formula("true", scenario, phi)->to_string(), "true");
  EXPECT_EQ(parse_formula("false", scenario, phi)->to_string(), "false");
}

TEST_F(FormulaParserTest, WhitespaceInsensitive) {
  EXPECT_EQ(parse_formula("  true  ", scenario, phi)->to_string(), "true");
  EXPECT_EQ(parse_formula("! \t false", scenario, phi)->to_string(), "!(false)");
}

TEST_F(FormulaParserTest, UnaryOperators) {
  EXPECT_EQ(parse_formula("!true", scenario, phi)->to_string(), "!(true)");
  EXPECT_EQ(parse_formula("<>true", scenario, phi)->to_string(), "<>(true)");
  EXPECT_EQ(parse_formula("[]false", scenario, phi)->to_string(), "[](false)");
  EXPECT_EQ(parse_formula("![]<>true", scenario, phi)->size(), 4u);
}

TEST_F(FormulaParserTest, Parentheses) {
  EXPECT_EQ(parse_formula("((true))", scenario, phi)->to_string(), "true");
  EXPECT_EQ(parse_formula("!(<>(false))", scenario, phi)->to_string(),
            "!(<>(false))");
}

TEST_F(FormulaParserTest, SatisfyResolvesComputation) {
  FormulaPtr psi = parse_formula("satisfy(job1)", scenario, phi);
  const auto* node = std::get_if<SatisfyConcurrent>(&psi->node());
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->rho.name(), "job1");
  EXPECT_EQ(node->rho.window(), TimeInterval(0, 10));
}

TEST_F(FormulaParserTest, SatisfyWindowOverrides) {
  // Each parsed formula is held in a local: the node pointers point into it.
  const FormulaPtr by_formula = parse_formula("satisfy(job1 by 15)", scenario, phi);
  const auto* by = std::get_if<SatisfyConcurrent>(&by_formula->node());
  ASSERT_NE(by, nullptr);
  EXPECT_EQ(by->rho.window(), TimeInterval(0, 15));

  const FormulaPtr both_formula =
      parse_formula("satisfy(job1 from 3 by 15)", scenario, phi);
  const auto* both = std::get_if<SatisfyConcurrent>(&both_formula->node());
  ASSERT_NE(both, nullptr);
  EXPECT_EQ(both->rho.window(), TimeInterval(3, 15));
}

TEST_F(FormulaParserTest, ParsedFormulasModelCheck) {
  // Idle path over the scenario supply: job1 (9 cpu of the 40 in its
  // window) fits; huge (160 cpu, its (0,10) window holds 40) does not.
  ComputationPath idle(SystemState(scenario.supply, 0));
  for (int i = 0; i < 20; ++i) idle.apply(TickStep{});
  ModelChecker mc(idle);
  EXPECT_TRUE(mc.satisfies(parse_formula("satisfy(job1)", scenario, phi), 0));
  EXPECT_FALSE(mc.satisfies(parse_formula("satisfy(huge)", scenario, phi), 0));
  EXPECT_TRUE(mc.satisfies(parse_formula("!satisfy(huge)", scenario, phi), 0));
  EXPECT_TRUE(mc.satisfies(parse_formula("[] !satisfy(huge)", scenario, phi), 0));
  EXPECT_TRUE(mc.satisfies(parse_formula("<> satisfy(job1)", scenario, phi), 0));
  // Extending huge's deadline into the supply's tail flips the verdict:
  // (0, 50) holds 200 cpu >= 160.
  EXPECT_TRUE(mc.satisfies(parse_formula("satisfy(huge by 50)", scenario, phi), 0));
}

void expect_parse_error(const std::string& text, const Scenario& scenario,
                        const CostModel& phi) {
  EXPECT_THROW(parse_formula(text, scenario, phi), FormulaParseError) << text;
}

TEST_F(FormulaParserTest, Errors) {
  expect_parse_error("", scenario, phi);
  expect_parse_error("maybe", scenario, phi);
  expect_parse_error("truex", scenario, phi);
  expect_parse_error("true false", scenario, phi);
  expect_parse_error("(true", scenario, phi);
  expect_parse_error("!", scenario, phi);
  expect_parse_error("satisfy", scenario, phi);
  expect_parse_error("satisfy()", scenario, phi);
  expect_parse_error("satisfy(ghost)", scenario, phi);
  expect_parse_error("satisfy(job1 by)", scenario, phi);
  expect_parse_error("satisfy(job1 by x)", scenario, phi);
  expect_parse_error("satisfy(job1 from 9 by 3)", scenario, phi);  // empty window
  expect_parse_error("satisfy(job1) extra", scenario, phi);
}

TEST_F(FormulaParserTest, ErrorsCarryPositions) {
  try {
    parse_formula("<> satisfy(ghost)", scenario, phi);
    FAIL() << "expected a parse error";
  } catch (const FormulaParseError& e) {
    EXPECT_EQ(e.position(), 11u);  // where 'ghost' begins
  }
}

}  // namespace
}  // namespace rota
