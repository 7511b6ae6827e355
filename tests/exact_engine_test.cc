// Exact engine tests: world enumeration, the paper's Section 1 / 2.3
// worked probabilities, and Theorem 8's decision/counting queries.

#include "cksafe/exact/exact_engine.h"

#include <gtest/gtest.h>

#include "cksafe/exact/world_enumerator.h"
#include "cksafe/knowledge/parser.h"
#include "cksafe/util/math_util.h"
#include "testing_util.h"

namespace cksafe {
namespace {

using testing::kFlu;
using testing::kHospitalSensitiveColumn;
using testing::kLungCancer;
using testing::kMumps;
using testing::MakeBuckets;
using testing::MakeHospitalBucketization;
using testing::MakeHospitalTable;

class HospitalExactTest : public ::testing::Test {
 protected:
  HospitalExactTest()
      : table_(MakeHospitalTable()),
        bucketization_(MakeHospitalBucketization(table_)),
        parser_(table_, kHospitalSensitiveColumn) {
    auto engine = ExactEngine::Create(bucketization_);
    CKSAFE_CHECK(engine.ok());
    engine_.emplace(*std::move(engine));
  }

  Atom AtomOf(const std::string& person, int32_t disease) {
    auto row = table_.FindRowByLabel(person);
    CKSAFE_CHECK(row.ok());
    return Atom{*row, disease};
  }

  Table table_;
  Bucketization bucketization_;
  KnowledgeParser parser_;
  std::optional<ExactEngine> engine_;
};

TEST_F(HospitalExactTest, WorldCountIsProductOfMultisetPermutations) {
  WorldEnumerator enumerator(bucketization_);
  // Bucket 1: {flu:2, lung:2, mumps:1} -> 5!/(2!2!1!) = 30 arrangements.
  // Bucket 2: {flu:2, breast:1, ovarian:1, heart:1} -> 5!/2! = 60.
  EXPECT_DOUBLE_EQ(enumerator.WorldCount(), 30.0 * 60.0);
  EXPECT_EQ(engine_->num_worlds(), 1800u);

  size_t visited = 0;
  enumerator.ForEachWorld([&](const std::vector<int32_t>& world) {
    ++visited;
    EXPECT_TRUE(bucketization_.IsConsistentAssignment(world));
    return true;
  });
  EXPECT_EQ(visited, 1800u);
}

TEST_F(HospitalExactTest, EnumerationStopsEarlyWhenVisitorReturnsFalse) {
  WorldEnumerator enumerator(bucketization_);
  size_t visited = 0;
  enumerator.ForEachWorld([&](const std::vector<int32_t>&) {
    ++visited;
    return visited < 7;
  });
  EXPECT_EQ(visited, 7u);
}

TEST_F(HospitalExactTest, BaselineProbabilityIsFrequencyRatio) {
  // Section 1: "Alice's estimate of the probability that Ed has lung cancer
  // is 2/5" with no background knowledge.
  KnowledgeFormula empty;
  auto p = engine_->ConditionalProbability(AtomOf("Ed", kLungCancer), empty);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(*p, 2.0 / 5.0, kProbabilityEpsilon);
}

TEST_F(HospitalExactTest, RulingOutMumpsGivesOneHalf) {
  // Section 1: knowing Ed does not have mumps raises lung cancer to 1/2.
  KnowledgeFormula phi;
  phi.AddNegation(AtomOf("Ed", kMumps), kFlu);
  auto p = engine_->ConditionalProbability(AtomOf("Ed", kLungCancer), phi);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(*p, 1.0 / 2.0, kProbabilityEpsilon);
}

TEST_F(HospitalExactTest, RulingOutMumpsAndFluGivesCertainty) {
  // Section 1: "if Alice also somehow discovers that Ed does not have flu,
  // then the fact that he has lung cancer becomes certain."
  KnowledgeFormula phi;
  phi.AddNegation(AtomOf("Ed", kMumps), kFlu);
  phi.AddNegation(AtomOf("Ed", kFlu), kMumps);
  auto p = engine_->ConditionalProbability(AtomOf("Ed", kLungCancer), phi);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(*p, 1.0, kProbabilityEpsilon);
}

TEST_F(HospitalExactTest, HannahCharlieImplicationGivesTenNineteenths) {
  // Section 1 / 2.3: "if Hannah has the flu then Charlie has the flu"
  // raises Pr(Charlie = flu) from 2/5 to 10/19.
  KnowledgeFormula phi;
  phi.AddSimple(SimpleImplication{AtomOf("Hannah", kFlu), AtomOf("Charlie", kFlu)});
  auto p = engine_->ConditionalProbability(AtomOf("Charlie", kFlu), phi);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(*p, 10.0 / 19.0, kProbabilityEpsilon);
}

TEST_F(HospitalExactTest, ParserRoundTripsTheWorkedExample) {
  auto phi = parser_.ParseFormula(
      "# Alice's knowledge about the couple\n"
      "t[Hannah].Disease = flu -> t[Charlie].Disease = flu\n");
  ASSERT_TRUE(phi.ok());
  ASSERT_EQ(phi->k(), 1u);
  auto p = engine_->ConditionalProbability(AtomOf("Charlie", kFlu), *phi);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(*p, 10.0 / 19.0, kProbabilityEpsilon);
}

TEST_F(HospitalExactTest, SelfImplicationActsAsNegation) {
  // Section 2.2: ¬(t[S]=s) is (t[S]=s) -> (t[S]=s') for any s' != s.
  // Ruling out lung cancer makes Pr(Ed = flu) = 2/3.
  KnowledgeFormula phi;
  phi.AddSimple(SimpleImplication{AtomOf("Ed", kLungCancer), AtomOf("Ed", kFlu)});
  auto p = engine_->ConditionalProbability(AtomOf("Ed", kFlu), phi);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(*p, 2.0 / 3.0, kProbabilityEpsilon);
}

TEST_F(HospitalExactTest, MaxDisclosureOneImplication) {
  // Over all of L^1_basic the maximum is 2/3 (a self-implication on a
  // male-bucket member, i.e. a negation). The paper's Section 2.3 quotes
  // 10/19, but exhaustive search shows that value is not the maximum under
  // any natural restriction: even limited to implications between distinct
  // persons mentioning only values present in their buckets, the formula
  // (Bob=flu) -> (Gloria=breast cancer) pushes Pr(Bob=lung cancer) to
  // 10/17 > 10/19. See DESIGN.md on the discrepancy.
  auto unrestricted = engine_->MaxDisclosureSimpleImplications(
      1, /*same_consequent=*/false);
  ASSERT_TRUE(unrestricted.ok());
  EXPECT_NEAR(unrestricted->disclosure, 2.0 / 3.0, kProbabilityEpsilon);

  BruteForceOptions options;
  options.require_distinct_persons = true;
  options.require_present_values = true;
  auto distinct = engine_->MaxDisclosureSimpleImplications(
      1, /*same_consequent=*/false, options);
  ASSERT_TRUE(distinct.ok());
  EXPECT_NEAR(distinct->disclosure, 10.0 / 17.0, kProbabilityEpsilon);
  EXPECT_GT(distinct->disclosure, 10.0 / 19.0);
  const KnowledgePrinter printer(table_, kHospitalSensitiveColumn);
  EXPECT_EQ(printer.AtomToString(distinct->target),
            "t[Bob].Disease=lung cancer");
  EXPECT_EQ(printer.FormulaToString(distinct->formula),
            "(t[Bob].Disease=flu -> t[Gloria].Disease=breast cancer)");
}

TEST_F(HospitalExactTest, SameConsequentFamilyAttainsTheMaximum) {
  // Theorem 9: restricting to a common consequent loses nothing.
  for (size_t k = 1; k <= 2; ++k) {
    auto full = engine_->MaxDisclosureSimpleImplications(k, false);
    auto same = engine_->MaxDisclosureSimpleImplications(k, true);
    ASSERT_TRUE(full.ok());
    ASSERT_TRUE(same.ok());
    EXPECT_NEAR(full->disclosure, same->disclosure, kProbabilityEpsilon)
        << "k=" << k;
    if (k == 2) {
      // The general search's witness rules out two of Bob's three values.
      const KnowledgePrinter printer(table_, kHospitalSensitiveColumn);
      EXPECT_EQ(full->disclosure, 1.0);
      EXPECT_EQ(printer.AtomToString(full->target), "t[Bob].Disease=mumps");
      EXPECT_EQ(printer.FormulaToString(full->formula),
                "(t[Bob].Disease=flu -> t[Bob].Disease=lung cancer) AND "
                "(t[Bob].Disease=lung cancer -> t[Bob].Disease=flu)");
    }
  }
}

TEST_F(HospitalExactTest, ConsistencyAndCounting) {
  // Consistent: Ed has flu (flu appears in his bucket).
  KnowledgeFormula consistent;
  consistent.AddSimple(
      SimpleImplication{AtomOf("Ed", kFlu), AtomOf("Ed", kFlu)});
  EXPECT_TRUE(engine_->IsConsistent(consistent));

  // Inconsistent: forcing both Bob and Charlie onto mumps (their bucket
  // holds a single mumps tuple) by ruling out their other options.
  KnowledgeFormula both;
  for (const char* name : {"Bob", "Charlie"}) {
    both.AddNegation(AtomOf(name, kFlu), kMumps);
    both.AddNegation(AtomOf(name, kLungCancer), kMumps);
  }
  EXPECT_FALSE(engine_->IsConsistent(both));
  EXPECT_EQ(engine_->CountWorlds(both), 0u);

  // Counting: worlds where Ed has lung cancer = (2/5) * 1800 = 720.
  KnowledgeFormula empty;
  EXPECT_EQ(engine_->CountWorlds(empty), 1800u);
  const Bitset ed_lung = engine_->AtomWorlds(AtomOf("Ed", kLungCancer));
  EXPECT_EQ(ed_lung.Count(), 720u);
}

TEST_F(HospitalExactTest, InconsistentKnowledgeYieldsFailedPrecondition) {
  KnowledgeFormula both;
  for (const char* name : {"Bob", "Charlie"}) {
    both.AddNegation(AtomOf(name, kFlu), kMumps);
    both.AddNegation(AtomOf(name, kLungCancer), kMumps);
  }
  auto p = engine_->ConditionalProbability(AtomOf("Ed", kFlu), both);
  EXPECT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ExactEngineTest, RefusesOversizedInstances) {
  auto fixture = MakeBuckets({{4, 4, 4, 4}}, 4);  // 16!/(4!^4) = 63,063,000
  ExactEngineOptions options;
  options.max_worlds = 1u << 20;
  auto engine = ExactEngine::Create(fixture.bucketization, options);
  EXPECT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kResourceExhausted);
}

TEST(ExactEngineTest, DisclosureRiskMatchesHandComputation) {
  // One bucket {v0:2, v1:1}: with no knowledge the risk is 2/3.
  auto fixture = MakeBuckets({{2, 1}}, 2);
  auto engine = ExactEngine::Create(fixture.bucketization);
  ASSERT_TRUE(engine.ok());
  auto risk = engine->DisclosureRisk(KnowledgeFormula());
  ASSERT_TRUE(risk.ok());
  EXPECT_NEAR(risk->disclosure, 2.0 / 3.0, kProbabilityEpsilon);
  EXPECT_EQ(risk->target.value, 0);
}

TEST(ExactEngineTest, BruteForceRespectsFormulaBudget) {
  auto fixture = MakeBuckets({{2, 1, 1}}, 3);
  auto engine = ExactEngine::Create(fixture.bucketization);
  ASSERT_TRUE(engine.ok());
  BruteForceOptions options;
  options.max_formulas = 10;
  auto result = engine->MaxDisclosureSimpleImplications(3, false, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace cksafe
