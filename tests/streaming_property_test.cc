// Differential oracle for the incremental streaming engine.
//
// The contract under test: after EVERY delta of an arbitrary
// insert/remove stream, IncrementalAnalyzer answers exactly — bit for bit,
// not approximately — what a fresh DisclosureAnalyzer over the same
// bucketization answers, and (on tiny tables, k <= 2) what the exact
// world-enumeration oracle computes. Sequential releases of a growing
// table (MultiPolicyPublisher::AddBatch + PublishAll) are checked against
// the reference publisher in multi_policy_search_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cksafe/anon/bucketization.h"
#include "cksafe/core/disclosure.h"
#include "cksafe/exact/exact_engine.h"
#include "cksafe/stream/incremental_analyzer.h"
#include "cksafe/util/random.h"
#include "testing_util.h"

namespace cksafe {
namespace {

std::vector<int32_t> RandomValues(Rng* rng, size_t domain, size_t max_count) {
  const size_t count = 1 + rng->NextBelow(max_count);
  std::vector<int32_t> values(count);
  for (auto& v : values) v = static_cast<int32_t>(rng->NextBelow(domain));
  return values;
}

// Applies one random delta.
void RandomDelta(Rng* rng, size_t domain, IncrementalAnalyzer* inc) {
  const uint64_t pick = rng->NextBelow(5);
  if (pick == 0 && inc->num_buckets() > 1) {
    inc->RemoveBucket(rng->NextBelow(inc->num_buckets()));
  } else if (pick == 1 && inc->num_buckets() > 0) {
    inc->AddTuples(rng->NextBelow(inc->num_buckets()),
                   RandomValues(rng, domain, 3));
  } else if (pick == 2 && inc->num_buckets() > 0) {
    // Remove up to 2 tuples from a bucket that stays non-empty, picking
    // values actually present (one at a time: each removal shifts stats).
    const size_t bucket = rng->NextBelow(inc->num_buckets());
    size_t removable = inc->bucket_members(bucket).size() - 1;
    while (removable > 0 && rng->NextBelow(2) == 0) {
      const BucketStats& stats = inc->bucket_stats(bucket);
      inc->RemoveTuples(bucket,
                        {stats.value_codes[rng->NextBelow(stats.d())]});
      --removable;
    }
  } else {
    inc->AddBucket(RandomValues(rng, domain, 5));
  }
}

// Exact equality of worst-case adversaries — doubles compared with ==.
void ExpectIdentical(const WorstCaseDisclosure& a,
                     const WorstCaseDisclosure& b) {
  EXPECT_EQ(a.disclosure, b.disclosure);
  EXPECT_EQ(a.target, b.target);
  EXPECT_EQ(a.antecedents, b.antecedents);
}

TEST(StreamingDifferentialTest, RandomStreamsMatchFreshAnalyzerBitForBit) {
  constexpr size_t kDomain = 4;
  const uint64_t seed = testing::TestSeed(20260726);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  const size_t trials = testing::TestIters(6);
  for (size_t trial = 0; trial < trials; ++trial) {
    IncrementalAnalyzer inc(kDomain);
    inc.AddBucket(RandomValues(&rng, kDomain, 5));
    for (int step = 0; step < 25; ++step) {
      RandomDelta(&rng, kDomain, &inc);
      const Bucketization reference = inc.CurrentBucketization();
      DisclosureAnalyzer fresh(reference);
      // Whole curves first: the incremental profile (updated via DP-row
      // reuse) must equal a fresh one-sweep profile element-for-element,
      // and both curves must be nondecreasing in k.
      const DisclosureProfile inc_profile = inc.Profile(4);
      const DisclosureProfile fresh_profile = fresh.Profile(4);
      ASSERT_EQ(inc_profile.implication, fresh_profile.implication)
          << "trial " << trial << " step " << step;
      ASSERT_EQ(inc_profile.negation, fresh_profile.negation)
          << "trial " << trial << " step " << step;
      for (size_t k = 1; k <= inc_profile.max_k(); ++k) {
        EXPECT_GE(inc_profile.implication[k], inc_profile.implication[k - 1]);
        EXPECT_GE(inc_profile.negation[k], inc_profile.negation[k - 1]);
      }
      for (size_t k = 0; k <= 4; ++k) {
        // The curve element equals the point query bit-for-bit.
        EXPECT_EQ(inc_profile.implication[k],
                  fresh.MaxDisclosureImplications(k).disclosure);
        ExpectIdentical(inc.MaxDisclosureImplications(k),
                        fresh.MaxDisclosureImplications(k));
        ExpectIdentical(inc.MaxDisclosureNegations(k),
                        fresh.MaxDisclosureNegations(k));
        // Per-bucket vulnerabilities: element-wise ==.
        const std::vector<double> inc_pb = inc.PerBucketDisclosure(k);
        const std::vector<double> fresh_pb = fresh.PerBucketDisclosure(k);
        ASSERT_EQ(inc_pb.size(), fresh_pb.size());
        for (size_t j = 0; j < inc_pb.size(); ++j) {
          EXPECT_EQ(inc_pb[j], fresh_pb[j])
              << "trial " << trial << " step " << step << " k=" << k
              << " bucket " << j;
        }
        for (double c : {0.3, 0.6, 0.9}) {
          EXPECT_EQ(inc.IsCkSafe(c, k), fresh.IsCkSafe(c, k));
        }
      }
    }
  }
}

TEST(StreamingDifferentialTest, QueriesBetweenDeltasReuseAllRows) {
  IncrementalAnalyzer inc(3);
  inc.AddBucket({0, 0, 1, 2});
  inc.AddBucket({1, 1, 2});
  inc.MaxDisclosureImplications(2);
  const uint64_t recomputed = inc.stats().rows_recomputed;
  // Re-query without a delta: the running sweep answers without rebuilding.
  inc.MaxDisclosureImplications(2);
  inc.IsCkSafe(0.5, 2);
  inc.PerBucketDisclosure(2);
  EXPECT_EQ(inc.stats().rows_recomputed, recomputed);
  EXPECT_GT(inc.stats().rows_reused, 0u);
}

TEST(StreamingDifferentialTest, AppendOnlyStreamsRecomputeOnlyNewRows) {
  IncrementalAnalyzer inc(3);
  for (int i = 0; i < 10; ++i) inc.AddBucket({0, 0, 1, 2});
  inc.MaxDisclosureImplications(3);
  const uint64_t after_warmup = inc.stats().rows_recomputed;
  // Each appended bucket costs exactly one new DP row at this k.
  for (int i = 0; i < 5; ++i) {
    inc.AddBucket({1, 2, 2});
    inc.MaxDisclosureImplications(3);
  }
  EXPECT_EQ(inc.stats().rows_recomputed, after_warmup + 5);
  // And the MINIMIZE1 tables for repeated histograms come from the cache:
  // two distinct histograms -> at most two table builds at this budget.
  EXPECT_EQ(inc.cache()->misses(), 2u);
}

TEST(StreamingDifferentialTest, ShrinkThenQueryMatchesFreshAnalyzer) {
  // Audit regression for the Recompute resume bound when the bucket list
  // SHRINKS (PR 4 satellite): after RemoveBucket the previous sweep has
  // more rows than the new bucket count, and the kept-prefix bound must
  // cap at the surviving rows so no stale tail row is ever observable
  // (via NoALogRow-consuming queries like PerBucketDisclosure). Each
  // scenario below is checked against a fresh analyzer bit-for-bit.
  constexpr size_t kDomain = 4;
  constexpr size_t kAtoms = 3;
  IncrementalAnalyzer inc(kDomain);
  for (int i = 0; i < 8; ++i) {
    inc.AddBucket({0, 0, 1, static_cast<int32_t>(i % kDomain)});
  }
  auto expect_matches_fresh = [&](const char* label) {
    const Bucketization reference = inc.CurrentBucketization();
    DisclosureAnalyzer fresh(reference);
    const DisclosureProfile inc_profile = inc.Profile(kAtoms);
    const DisclosureProfile fresh_profile = fresh.Profile(kAtoms);
    ASSERT_EQ(inc_profile.implication, fresh_profile.implication) << label;
    ASSERT_EQ(inc_profile.implication_log_r, fresh_profile.implication_log_r)
        << label;
    const std::vector<double> inc_pb = inc.PerBucketDisclosure(kAtoms);
    const std::vector<double> fresh_pb = fresh.PerBucketDisclosure(kAtoms);
    ASSERT_EQ(inc_pb, fresh_pb) << label;
    ASSERT_EQ(inc_pb.size(), inc.num_buckets()) << label;
  };
  expect_matches_fresh("warmup");

  // Remove the LAST bucket: every surviving row is reusable, so the
  // query must not rebuild anything (prev_rows > rows is the audited
  // shrink case: the stale tail is discarded, not recomputed).
  const uint64_t before_tail_removal = inc.stats().rows_recomputed;
  inc.RemoveBucket(7);
  expect_matches_fresh("remove last");
  EXPECT_EQ(inc.stats().rows_recomputed, before_tail_removal);

  // Remove a MIDDLE bucket: rows above it rebuild, rows below reuse.
  inc.RemoveBucket(3);
  expect_matches_fresh("remove middle");

  // Shrink to a prefix, then grow again past the old length: resize up
  // must not resurrect stale row contents.
  inc.RemoveBucket(5);
  inc.RemoveBucket(4);
  inc.RemoveBucket(3);
  expect_matches_fresh("shrink to prefix");
  for (int i = 0; i < 6; ++i) inc.AddBucket({2, 3, 3, 1});
  expect_matches_fresh("regrow past old length");

  // Remove-then-append at the same index without an intervening query:
  // the replacement bucket's row must be recomputed even though the
  // bucket count matches the previous sweep.
  inc.RemoveBucket(inc.num_buckets() - 1);
  inc.AddBucket({1, 1, 0, 2});
  expect_matches_fresh("replace tail bucket");
}

TEST(StreamingDifferentialTest, MatchesExactOracleOnTinyStreams) {
  constexpr size_t kDomain = 3;
  const uint64_t seed = testing::TestSeed(77);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  const size_t trials = testing::TestIters(4);
  for (size_t trial = 0; trial < trials; ++trial) {
    IncrementalAnalyzer inc(kDomain);
    inc.AddBucket(RandomValues(&rng, kDomain, 3));
    for (int step = 0; step < 10; ++step) {
      RandomDelta(&rng, kDomain, &inc);
      if (inc.num_tuples() > 8) {
        // Keep the world count enumerable: drop a bucket and continue.
        while (inc.num_buckets() > 1) inc.RemoveBucket(0);
        continue;
      }
      const Bucketization reference = inc.CurrentBucketization();
      auto engine = ExactEngine::Create(reference);
      ASSERT_TRUE(engine.ok()) << engine.status();
      const DisclosureProfile profile = inc.Profile(2);
      for (size_t k = 0; k <= 2; ++k) {
        const WorstCaseDisclosure dp = inc.MaxDisclosureImplications(k);
        // The streaming profile agrees with the point query and (below)
        // with the world-enumeration oracle.
        EXPECT_EQ(profile.implication[k], dp.disclosure);
        auto brute = engine->MaxDisclosureSimpleImplications(
            k, /*same_consequent=*/true);
        ASSERT_TRUE(brute.ok()) << brute.status();
        EXPECT_NEAR(dp.disclosure, brute->disclosure, 1e-9)
            << "trial " << trial << " step " << step << " k=" << k;
        // The incremental witness really attains its claimed value.
        auto rescored =
            engine->ConditionalProbability(dp.target, dp.ToFormula());
        ASSERT_TRUE(rescored.ok()) << rescored.status();
        EXPECT_NEAR(*rescored, dp.disclosure, 1e-9);

        const WorstCaseDisclosure neg = inc.MaxDisclosureNegations(k);
        auto brute_neg = engine->MaxDisclosureNegations(k);
        ASSERT_TRUE(brute_neg.ok()) << brute_neg.status();
        EXPECT_NEAR(neg.disclosure, brute_neg->disclosure, 1e-9);
      }
    }
  }
}

}  // namespace
}  // namespace cksafe
