// Randomized property tests for the disclosure pipeline:
//  * the MINIMIZE2 DP matches a brute-force maximum computed by ExactEngine
//    world enumeration on random tiny instances (Theorem 9 says the
//    same-consequent simple-implication family the brute force sweeps is
//    the true maximum over L^k_basic);
//  * max over PerBucketDisclosure equals MaxDisclosureImplications — the
//    per-bucket prefix/suffix sweep and the global DP agree on the argmax;
//  * ImplicationCurve and NegationCurve are non-decreasing in k (more
//    background knowledge can only help the adversary; the k-monotonicity
//    companion of Theorem 14's lattice monotonicity).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cksafe/core/disclosure.h"
#include "cksafe/exact/exact_engine.h"
#include "cksafe/util/math_util.h"
#include "cksafe/util/random.h"
#include "testing_util.h"

namespace cksafe {
namespace {

using testing::MakeBuckets;
using testing::RandomHistograms;

// Random histograms small enough for world enumeration: <= max_rows rows
// total over num_buckets non-empty buckets.
std::vector<std::vector<uint32_t>> TinyHistograms(Rng* rng, size_t num_buckets,
                                                  size_t domain_size,
                                                  size_t max_rows) {
  for (;;) {
    auto histograms = RandomHistograms(rng, num_buckets, domain_size,
                                       /*max_bucket=*/4);
    size_t rows = 0;
    for (const auto& h : histograms) {
      for (uint32_t c : h) rows += c;
    }
    if (rows <= max_rows) return histograms;
  }
}

TEST(DisclosurePropertyTest, DpMatchesExactEngineBruteForceOnTinyTables) {
  const uint64_t seed = testing::TestSeed(20260726);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  const size_t trials = testing::TestIters(12);
  for (size_t trial = 0; trial < trials; ++trial) {
    const size_t num_buckets = 1 + rng.NextBelow(3);  // <= 3 buckets
    const size_t domain = 2 + rng.NextBelow(2);       // 2-3 values
    auto fixture =
        MakeBuckets(TinyHistograms(&rng, num_buckets, domain, /*max_rows=*/8),
                    domain);
    auto engine = ExactEngine::Create(fixture.bucketization);
    ASSERT_TRUE(engine.ok()) << engine.status();
    DisclosureAnalyzer analyzer(fixture.bucketization);

    for (size_t k = 0; k <= 3; ++k) {
      const WorstCaseDisclosure dp = analyzer.MaxDisclosureImplications(k);
      auto brute =
          engine->MaxDisclosureSimpleImplications(k, /*same_consequent=*/true);
      ASSERT_TRUE(brute.ok()) << brute.status();
      EXPECT_NEAR(dp.disclosure, brute->disclosure, 1e-9)
          << "trial " << trial << " k=" << k;

      // The oracle's own witness re-scores to its value, and it is k
      // implications sharing one consequent.
      auto rescored =
          engine->ConditionalProbability(brute->target, brute->formula);
      ASSERT_TRUE(rescored.ok()) << rescored.status();
      EXPECT_EQ(*rescored, brute->disclosure)
          << "trial " << trial << " k=" << k;
      ASSERT_EQ(brute->formula.k(), k);
      for (const BasicImplication& imp : brute->formula.implications()) {
        ASSERT_EQ(imp.antecedents.size(), 1u);
        ASSERT_EQ(imp.consequents.size(), 1u);
        EXPECT_EQ(imp.consequents[0],
                  brute->formula.implications()[0].consequents[0])
            << "trial " << trial << " k=" << k;
      }

      // The DP's reconstructed witness really attains its claimed value.
      auto witness = engine->ConditionalProbability(dp.target, dp.ToFormula());
      ASSERT_TRUE(witness.ok()) << witness.status();
      EXPECT_NEAR(*witness, dp.disclosure, 1e-9)
          << "trial " << trial << " k=" << k;
    }
  }
}

TEST(DisclosurePropertyTest, PerBucketMaximumEqualsGlobalMaximum) {
  const uint64_t seed = testing::TestSeed(42);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  const size_t trials = testing::TestIters(20);
  for (size_t trial = 0; trial < trials; ++trial) {
    const size_t num_buckets = 1 + rng.NextBelow(5);
    const size_t domain = 2 + rng.NextBelow(4);
    auto fixture = MakeBuckets(
        RandomHistograms(&rng, num_buckets, domain, /*max_bucket=*/6), domain);
    DisclosureAnalyzer analyzer(fixture.bucketization);
    for (size_t k = 0; k <= 4; ++k) {
      const std::vector<double> per_bucket = analyzer.PerBucketDisclosure(k);
      ASSERT_EQ(per_bucket.size(), fixture.bucketization.num_buckets());
      const double max_bucket =
          *std::max_element(per_bucket.begin(), per_bucket.end());
      EXPECT_NEAR(max_bucket, analyzer.MaxDisclosureImplications(k).disclosure,
                  1e-12)
          << "trial " << trial << " k=" << k;
    }
  }
}

TEST(DisclosurePropertyTest, DisclosureCurvesAreNonDecreasingInK) {
  const uint64_t seed = testing::TestSeed(7);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  const size_t trials = testing::TestIters(20);
  for (size_t trial = 0; trial < trials; ++trial) {
    const size_t num_buckets = 1 + rng.NextBelow(4);
    const size_t domain = 2 + rng.NextBelow(4);
    auto fixture = MakeBuckets(
        RandomHistograms(&rng, num_buckets, domain, /*max_bucket=*/6), domain);
    DisclosureAnalyzer analyzer(fixture.bucketization);

    constexpr size_t kMaxK = 6;
    const std::vector<double> curve = analyzer.ImplicationCurve(kMaxK);
    const std::vector<double> negation = analyzer.NegationCurve(kMaxK);
    ASSERT_EQ(curve.size(), kMaxK + 1);
    for (size_t k = 1; k <= kMaxK; ++k) {
      EXPECT_GE(curve[k], curve[k - 1] - 1e-12)
          << "trial " << trial << " k=" << k;
      EXPECT_GE(negation[k], negation[k - 1] - 1e-12)
          << "trial " << trial << " k=" << k;
    }
    // Implications subsume negations' disclosure power pointwise.
    for (size_t k = 0; k <= kMaxK; ++k) {
      EXPECT_GE(curve[k], negation[k] - 1e-12)
          << "trial " << trial << " k=" << k;
    }
    // Every curve value is a probability.
    for (double v : curve) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0 + 1e-12);
    }
  }
}

}  // namespace
}  // namespace cksafe
