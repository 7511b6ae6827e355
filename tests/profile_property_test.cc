// Property tests for one-sweep disclosure profiles.
//
// On random histograms: (a) both curves are nondecreasing in k (the
// monotone-in-k half of the double monotonicity Theorem 14's lattice half
// pairs with); (b) element k matches the per-k point queries
// MaxDisclosureImplications / MaxDisclosureNegations to 1e-12 — in fact
// the implication curve is asserted bit-identical, since column k of the
// shared DP runs the same float ops as a dedicated budget-k sweep; and
// (c) for tiny tables the curve matches the exact world-enumeration
// oracle for k <= 2.

#include <gtest/gtest.h>

#include <vector>

#include "cksafe/core/disclosure.h"
#include "cksafe/exact/exact_engine.h"
#include "cksafe/util/random.h"
#include "testing_util.h"

namespace cksafe {
namespace {

constexpr double kTol = 1e-12;

TEST(ProfilePropertyTest, CurvesAreNondecreasingInK) {
  const uint64_t seed = testing::TestSeed(20260726);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  const size_t trials = testing::TestIters(30);
  for (size_t trial = 0; trial < trials; ++trial) {
    const size_t domain = 2 + rng.NextBelow(5);
    const auto buckets = testing::MakeBuckets(
        testing::RandomHistograms(&rng, 1 + rng.NextBelow(6), domain, 8),
        domain);
    DisclosureAnalyzer analyzer(buckets.bucketization);
    const DisclosureProfile profile = analyzer.Profile(6);
    ASSERT_EQ(profile.max_k(), 6u);
    for (size_t k = 1; k <= profile.max_k(); ++k) {
      EXPECT_GE(profile.implication[k], profile.implication[k - 1])
          << "trial " << trial << " k=" << k;
      EXPECT_GE(profile.negation[k], profile.negation[k - 1])
          << "trial " << trial << " k=" << k;
    }
    // Disclosure is a probability; k = 0 is the no-knowledge posterior.
    EXPECT_GT(profile.implication[0], 0.0);
    EXPECT_LE(profile.implication.back(), 1.0 + kTol);
  }
}

TEST(ProfilePropertyTest, ProfileMatchesPerKPointQueries) {
  const uint64_t seed = testing::TestSeed(7);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  const size_t trials = testing::TestIters(20);
  for (size_t trial = 0; trial < trials; ++trial) {
    const size_t domain = 2 + rng.NextBelow(4);
    const auto buckets = testing::MakeBuckets(
        testing::RandomHistograms(&rng, 1 + rng.NextBelow(5), domain, 7),
        domain);
    DisclosureAnalyzer analyzer(buckets.bucketization);
    const DisclosureProfile profile = analyzer.Profile(5);
    for (size_t k = 0; k <= profile.max_k(); ++k) {
      // Bit-identical, which trivially satisfies the 1e-12 contract: the
      // point query's dedicated sweep recomputes exactly column k.
      EXPECT_EQ(profile.implication[k],
                analyzer.MaxDisclosureImplications(k).disclosure)
          << "trial " << trial << " k=" << k;
      EXPECT_EQ(profile.negation[k],
                analyzer.MaxDisclosureNegations(k).disclosure)
          << "trial " << trial << " k=" << k;
      EXPECT_EQ(profile.IsCkSafe(0.6, k), analyzer.IsCkSafe(0.6, k));
    }
    // And the view APIs are the same curves.
    EXPECT_EQ(analyzer.ImplicationCurve(profile.max_k()),
              profile.implication);
    EXPECT_EQ(analyzer.NegationCurve(profile.max_k()), profile.negation);
  }
}

TEST(ProfilePropertyTest, ProfileMatchesExactOracleForSmallK) {
  const uint64_t seed = testing::TestSeed(77);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  const size_t trials = testing::TestIters(8);
  for (size_t trial = 0; trial < trials; ++trial) {
    const size_t domain = 2 + rng.NextBelow(2);
    const auto buckets = testing::MakeBuckets(
        testing::RandomHistograms(&rng, 1 + rng.NextBelow(3), domain, 3),
        domain);
    if (buckets.table.num_rows() > 8) continue;  // keep worlds enumerable
    auto engine = ExactEngine::Create(buckets.bucketization);
    ASSERT_TRUE(engine.ok()) << engine.status();
    DisclosureAnalyzer analyzer(buckets.bucketization);
    const DisclosureProfile profile = analyzer.Profile(2);
    for (size_t k = 0; k <= 2; ++k) {
      auto brute = engine->MaxDisclosureSimpleImplications(
          k, /*same_consequent=*/true);
      ASSERT_TRUE(brute.ok()) << brute.status();
      EXPECT_NEAR(profile.implication[k], brute->disclosure, 1e-9)
          << "trial " << trial << " k=" << k;
      // The negation oracle legitimately reports "no consistent negation
      // set" on degenerate histograms (fewer than k + 1 realizable
      // values); compare only where it has an answer.
      auto brute_neg = engine->MaxDisclosureNegations(k);
      if (brute_neg.ok()) {
        EXPECT_NEAR(profile.negation[k], brute_neg->disclosure, 1e-9)
            << "trial " << trial << " k=" << k;
        // Its witness is k negations that re-score to its value.
        ASSERT_EQ(brute_neg->formula.k(), k);
        for (const BasicImplication& imp : brute_neg->formula.implications()) {
          EXPECT_TRUE(imp.IsNegationShape());
        }
        auto rescored = engine->ConditionalProbability(brute_neg->target,
                                                       brute_neg->formula);
        ASSERT_TRUE(rescored.ok()) << rescored.status();
        EXPECT_EQ(*rescored, brute_neg->disclosure)
            << "trial " << trial << " k=" << k;
      }
    }
  }
}

TEST(ProfilePropertyTest, HospitalFixtureProfile) {
  // The paper's running example (Figure 3 numbers): spot anchor so the
  // random trials cannot all silently degenerate.
  const Table table = testing::MakeHospitalTable();
  const Bucketization bucketization =
      testing::MakeHospitalBucketization(table);
  DisclosureAnalyzer analyzer(bucketization);
  const DisclosureProfile profile = analyzer.Profile(4);
  EXPECT_NEAR(profile.implication[0], 0.4, kTol);
  for (size_t k = 0; k <= 4; ++k) {
    EXPECT_EQ(profile.implication[k],
              analyzer.MaxDisclosureImplications(k).disclosure);
  }
  // At k = 4 an attacker can pin one male bucket member to flu.
  EXPECT_NEAR(profile.implication.back(), 1.0, kTol);
}

}  // namespace
}  // namespace cksafe
