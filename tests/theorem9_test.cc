// Theorem 9 validation beyond simple implications: on small instances the
// maximum disclosure over conjunctions of *general* basic implications
// (multi-atom antecedents and consequents) equals the maximum over
// same-consequent simple implications — which is what the polynomial DP
// computes. Lemmas 10 and 11 say richer shapes cannot help; here we verify
// that exhaustively.

#include <gtest/gtest.h>

#include "cksafe/core/disclosure.h"
#include "cksafe/exact/exact_engine.h"
#include "testing_util.h"

namespace cksafe {
namespace {

using testing::MakeBuckets;

struct Theorem9Case {
  std::vector<std::vector<uint32_t>> histograms;
  size_t domain;
  size_t k;
  size_t max_antecedents;
  size_t max_consequents;
};

class Theorem9Test : public ::testing::TestWithParam<Theorem9Case> {};

TEST_P(Theorem9Test, BasicImplicationsCannotBeatSimpleSameConsequent) {
  const Theorem9Case& param = GetParam();
  auto fixture = MakeBuckets(param.histograms, param.domain);
  auto engine = ExactEngine::Create(fixture.bucketization);
  ASSERT_TRUE(engine.ok());

  BruteForceOptions options;
  options.max_formulas = 80'000'000;
  auto rich = engine->MaxDisclosureBasicImplications(
      param.k, param.max_antecedents, param.max_consequents, options);
  ASSERT_TRUE(rich.ok()) << rich.status();
  auto simple = engine->MaxDisclosureSimpleImplications(
      param.k, /*same_consequent=*/true);
  ASSERT_TRUE(simple.ok()) << simple.status();
  DisclosureAnalyzer analyzer(fixture.bucketization);
  const double dp = analyzer.MaxDisclosureImplications(param.k).disclosure;

  // Theorem 9: the three maxima agree.
  EXPECT_NEAR(rich->disclosure, simple->disclosure, 1e-9);
  EXPECT_NEAR(rich->disclosure, dp, 1e-9);

  // Both witnesses are k implications that re-score to their values, and
  // the simple one shares a single consequent.
  for (const ExactDisclosure* witness : {&*rich, &*simple}) {
    ASSERT_TRUE(witness->formula.Validate().ok());
    ASSERT_EQ(witness->formula.k(), param.k);
    auto p = engine->ConditionalProbability(witness->target, witness->formula);
    ASSERT_TRUE(p.ok()) << p.status();
    EXPECT_EQ(*p, witness->disclosure);
  }
  for (const BasicImplication& imp : simple->formula.implications()) {
    ASSERT_EQ(imp.antecedents.size(), 1u);
    ASSERT_EQ(imp.consequents.size(), 1u);
    EXPECT_EQ(imp.consequents[0],
              simple->formula.implications()[0].consequents[0]);
  }
}

std::vector<Theorem9Case> MakeTheorem9Cases() {
  return {
      // Hospital-like two-bucket instance, k=1, full (<=2, <=2) shapes.
      {{{2, 1}, {1, 1}}, 2, 1, 2, 2},
      // Skewed single bucket, k=1, full shapes over 3 values.
      {{{2, 1, 1}}, 3, 1, 2, 2},
      // k=2 with multi-atom antecedents (consequents capped at 1).
      {{{2, 1}, {1, 1}}, 2, 2, 2, 1},
      // k=2, single bucket, antecedent pairs.
      {{{2, 2, 1}}, 3, 2, 2, 1},
      // Disjunctive consequents with k=2 on the smallest instance.
      {{{1, 1}, {1, 1}}, 2, 2, 1, 2},
  };
}

INSTANTIATE_TEST_SUITE_P(SmallInstances, Theorem9Test,
                         ::testing::ValuesIn(MakeTheorem9Cases()),
                         [](const ::testing::TestParamInfo<Theorem9Case>& param_info) {
                           return "case" + std::to_string(param_info.index);
                         });

TEST(Theorem9EdgeTest, RejectsDegenerateShapes) {
  auto fixture = MakeBuckets({{1, 1}}, 2);
  auto engine = ExactEngine::Create(fixture.bucketization);
  ASSERT_TRUE(engine.ok());
  EXPECT_FALSE(engine->MaxDisclosureBasicImplications(1, 0, 1).ok());
  EXPECT_FALSE(engine->MaxDisclosureBasicImplications(1, 1, 0).ok());
}

TEST(Theorem9EdgeTest, BudgetGuardTrips) {
  auto fixture = MakeBuckets({{2, 2, 1}, {2, 1, 1}}, 3);
  auto engine = ExactEngine::Create(fixture.bucketization);
  ASSERT_TRUE(engine.ok());
  BruteForceOptions options;
  options.max_formulas = 100;
  auto result =
      engine->MaxDisclosureBasicImplications(2, 2, 2, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(Theorem9EdgeTest, BudgetGuardTripsBeforeBuildingSubsets) {
  // Hospital-sized: 60 atoms, so each side has sum_{i<=6} C(60, i) ~ 5.6e7
  // subsets. The search must refuse from their count, not after building
  // them.
  auto fixture = MakeBuckets({{2, 2, 1, 0, 0, 0}, {2, 0, 0, 1, 1, 1}}, 6);
  auto engine = ExactEngine::Create(fixture.bucketization);
  ASSERT_TRUE(engine.ok());
  auto result = engine->MaxDisclosureBasicImplications(1, 6, 6);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(Theorem9EdgeTest, MemoryGuardTripsUnderTheFormulaCap) {
  // The same 10 persons at (k, antecedents, consequents) = (1, 2, 2):
  // 1,830^2 ~ 3.3e6 candidates, under the default formula cap, but each
  // holds a 1,800-world bitset (~777 MB in all). The search must refuse
  // from their size, not run out of memory building them.
  auto fixture = MakeBuckets({{2, 2, 1, 0, 0, 0}, {2, 0, 0, 1, 1, 1}}, 6);
  auto engine = ExactEngine::Create(fixture.bucketization);
  ASSERT_TRUE(engine.ok());
  ASSERT_EQ(engine->num_worlds(), 1800u);
  auto result = engine->MaxDisclosureBasicImplications(1, 2, 2);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status().message().find("bytes"), std::string::npos)
      << result.status();
}

TEST(Theorem9EdgeTest, MultiAtomWitnessHoldsSemantically) {
  // The returned witness is a well-formed formula that reproduces its
  // disclosure when re-scored.
  auto fixture = MakeBuckets({{2, 1}, {1, 1}}, 2);
  auto engine = ExactEngine::Create(fixture.bucketization);
  ASSERT_TRUE(engine.ok());
  auto rich = engine->MaxDisclosureBasicImplications(1, 2, 2);
  ASSERT_TRUE(rich.ok());
  ASSERT_TRUE(rich->formula.Validate().ok());
  auto p = engine->ConditionalProbability(rich->target, rich->formula);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(*p, rich->disclosure, 1e-9);
}

}  // namespace
}  // namespace cksafe
