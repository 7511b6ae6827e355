// BucketStats and DisclosureCache unit tests, plus MINIMIZE2 edge cases the
// property sweeps do not isolate: multi-bucket witnesses, saturation, cache
// upgrades, and numeric behaviour on large buckets.

#include "cksafe/core/bucket_stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "cksafe/core/disclosure.h"
#include "cksafe/hierarchy/hierarchy.h"
#include "cksafe/search/utility.h"
#include "cksafe/util/math_util.h"
#include "testing_util.h"

namespace cksafe {
namespace {

using testing::MakeBuckets;

TEST(BucketStatsTest, SortsCountsDescendingWithStableCodes) {
  // histogram indexed by code: code 0 -> 1, code 1 -> 4, code 2 -> 0,
  // code 3 -> 4, code 4 -> 2.
  const BucketStats stats =
      BucketStats::FromHistogram(std::vector<uint32_t>{1, 4, 0, 4, 2});
  EXPECT_EQ(stats.n, 11u);
  EXPECT_EQ(stats.counts, (std::vector<uint32_t>{4, 4, 2, 1}));
  // Ties broken by ascending code: code 1 before code 3.
  EXPECT_EQ(stats.value_codes, (std::vector<int32_t>{1, 3, 4, 0}));
  EXPECT_EQ(stats.prefix, (std::vector<uint32_t>{0, 4, 8, 10, 11}));
  EXPECT_EQ(stats.d(), 4u);
  EXPECT_EQ(stats.TopSum(2), 8u);
  EXPECT_EQ(stats.TopSum(99), 11u);  // clamped to d
}

TEST(BucketStatsTest, CacheKeyIgnoresValueIdentity) {
  // Two histograms with the same count multiset share a key (and hence a
  // MINIMIZE1 table); a different multiset does not. The key is the sorted
  // count vector itself, so equality is exact vector equality.
  const BucketStats a =
      BucketStats::FromHistogram(std::vector<uint32_t>{3, 1, 0});
  const BucketStats b =
      BucketStats::FromHistogram(std::vector<uint32_t>{0, 1, 3});
  const BucketStats c =
      BucketStats::FromHistogram(std::vector<uint32_t>{2, 2, 0});
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_NE(a.counts, c.counts);

  DisclosureCache cache;
  EXPECT_EQ(cache.GetOrCompute(a, 3).get(), cache.GetOrCompute(b, 3).get());
  EXPECT_NE(cache.GetOrCompute(a, 3).get(), cache.GetOrCompute(c, 3).get());
  EXPECT_EQ(cache.entries(), 2u);
}

TEST(BucketStatsTest, CacheKeyCollisionsStayDistinct) {
  // Count vectors whose hashes may collide (same multiset-sum, same length,
  // permuted positions, length-extension shapes) must still map to distinct
  // tables: the map compares full keys, a hash collision only costs a probe.
  const std::vector<std::vector<uint32_t>> keys = {
      {4},       {3, 1},    {2, 2},    {2, 1, 1}, {1, 1, 1, 1},
      {4, 3, 1}, {4, 1, 3}, {1, 3, 4}, {8},       {7, 1},
  };
  DisclosureCache cache;
  std::vector<const Minimize1Table*> tables;
  for (const auto& counts : keys) {
    // Keys must be descending for the DP; sort a copy where needed.
    std::vector<uint32_t> sorted = counts;
    std::sort(sorted.rbegin(), sorted.rend());
    tables.push_back(cache.GetOrCompute(sorted, 2).get());
  }
  // {4,3,1} and its permutations all normalize to one key; everything else
  // is pairwise distinct.
  EXPECT_EQ(tables[5], tables[6]);
  EXPECT_EQ(tables[5], tables[7]);
  EXPECT_EQ(cache.entries(), 8u);
  for (size_t i = 0; i < keys.size(); ++i) {
    for (size_t j = i + 1; j < keys.size(); ++j) {
      if (i == 5 || i == 6 || i == 7) {
        if (j == 5 || j == 6 || j == 7) continue;
      }
      EXPECT_NE(tables[i], tables[j]) << i << " vs " << j;
    }
  }
}

TEST(BucketStatsTest, AddValueMatchesFromHistogramRebuild) {
  // Delta updates must be *identical* (not just equivalent) to a rebuild:
  // the streaming analyzer's bit-identity rests on it.
  Rng rng(424242);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t domain = 1 + rng.NextBelow(6);
    std::vector<uint32_t> histogram(domain, 0);
    BucketStats stats;  // empty bucket: n = 0, no counts
    for (int step = 0; step < 30; ++step) {
      const bool remove = stats.n > 0 && rng.NextBelow(3) == 0;
      if (remove) {
        // Pick a present code.
        std::vector<int32_t> present;
        for (size_t s = 0; s < domain; ++s) {
          if (histogram[s] > 0) present.push_back(static_cast<int32_t>(s));
        }
        const int32_t code = present[rng.NextBelow(present.size())];
        --histogram[code];
        stats.RemoveValue(code);
      } else {
        const int32_t code = static_cast<int32_t>(rng.NextBelow(domain));
        ++histogram[code];
        stats.AddValue(code);
      }
      const BucketStats rebuilt = BucketStats::FromHistogram(histogram);
      ASSERT_EQ(stats.n, rebuilt.n) << "trial " << trial << " step " << step;
      ASSERT_EQ(stats.counts, rebuilt.counts);
      ASSERT_EQ(stats.value_codes, rebuilt.value_codes);
      ASSERT_EQ(stats.prefix, rebuilt.prefix);
    }
  }
}

TEST(DisclosureCacheTest, UpgradesTablesToLargerBudgets) {
  DisclosureCache cache;
  const BucketStats stats =
      BucketStats::FromHistogram(std::vector<uint32_t>{3, 2, 1});
  const auto small = cache.GetOrCompute(stats, 2);
  EXPECT_EQ(small->max_k(), 2u);
  EXPECT_EQ(cache.misses(), 1u);

  // Same budget or smaller: hit.
  cache.GetOrCompute(stats, 2);
  cache.GetOrCompute(stats, 1);
  EXPECT_EQ(cache.hits(), 2u);

  // Larger budget: recompute (upgrade), values consistent with before.
  const auto big = cache.GetOrCompute(stats, 6);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_GE(big->max_k(), 6u);
  Minimize1Table fresh({3, 2, 1}, 6);
  for (size_t m = 0; m <= 6; ++m) {
    EXPECT_NEAR(big->MinProbability(m), fresh.MinProbability(m), 1e-15);
  }
  cache.Clear();
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(DisclosureCacheTest, UpgradeDoesNotInvalidateOutstandingTables) {
  // Regression: with the original unique_ptr cache, upgrading a histogram's
  // table to a larger budget destroyed the old table while callers could
  // still hold a reference to it (the documented lifetime hazard). Tables
  // are now refcounted, so a pre-upgrade handle stays valid and correct.
  DisclosureCache cache;
  const BucketStats stats =
      BucketStats::FromHistogram(std::vector<uint32_t>{4, 3, 2, 1});
  const auto before = cache.GetOrCompute(stats, 2);
  const double p0 = before->MinProbability(0);
  const double p2 = before->MinProbability(2);

  const auto upgraded = cache.GetOrCompute(stats, 8);
  EXPECT_GE(upgraded->max_k(), 8u);
  EXPECT_NE(before.get(), upgraded.get());

  // The old handle still dereferences to the same values.
  EXPECT_EQ(before->max_k(), 2u);
  EXPECT_NEAR(before->MinProbability(0), p0, 1e-15);
  EXPECT_NEAR(before->MinProbability(2), p2, 1e-15);
  EXPECT_NEAR(upgraded->MinProbability(2), p2, 1e-15);

  // Clear() drops the cache's references but not the caller's.
  cache.Clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_NEAR(before->MinProbability(2), p2, 1e-15);
}

// A table with one quasi-identifier value per histogram (sensitive codes
// 0..3), so grouping at the bottom node gives one bucket per histogram, in
// order.
struct BucketTable {
  Table table;
  std::vector<QuasiIdentifier> qis;
};

BucketTable TableOfBuckets(
    const std::vector<std::vector<uint32_t>>& histograms) {
  const Schema schema(
      {AttributeDef::Numeric("Q", 0,
                             static_cast<int32_t>(histograms.size()) - 1),
       AttributeDef::Categorical("S", {"a", "b", "c", "d"})});
  BucketTable out{Table(schema), {}};
  for (size_t q = 0; q < histograms.size(); ++q) {
    for (size_t s = 0; s < histograms[q].size(); ++s) {
      for (uint32_t i = 0; i < histograms[q][s]; ++i) {
        CKSAFE_CHECK(out.table
                         .AppendRow({static_cast<int32_t>(q),
                                     static_cast<int32_t>(s)})
                         .ok());
      }
    }
  }
  out.qis = {{0, MakeDefaultHierarchy(out.table.schema().attribute(0))}};
  return out;
}

// Eight buckets that each hold two or more values, whose sorted counts
// repeat: {1,1} three times, {2,1} and {1,1,1} twice each, {3,1} once.
std::vector<std::vector<uint32_t>> MultiValuedBuckets() {
  return {{1, 1, 0, 0}, {0, 1, 0, 1}, {1, 0, 2, 0}, {0, 0, 2, 1},
          {1, 1, 1, 0}, {0, 1, 0, 3}, {0, 1, 1, 1}, {0, 0, 1, 1}};
}

TEST(DisclosureCacheTest, HistogramProfileLooksUpEachDistinctVectorOnce) {
  // A profile of MultiValuedBuckets() asks the cache once per distinct
  // vector and counts the repeats as hits, so the counters read as one
  // request per bucket.
  const BucketTable fixture = TableOfBuckets(MultiValuedBuckets());
  auto grouped =
      NodeHistograms::AtNode(fixture.table, fixture.qis, LatticeNode{0}, 1);
  ASSERT_TRUE(grouped.ok()) << grouped.status();
  ASSERT_EQ(grouped->num_buckets(), 8u);
  constexpr size_t kMaxK = 3;

  DisclosureCache cache;
  Minimize2Workspace workspace;
  const DisclosureProfile cold =
      ImplicationProfile(*grouped, kMaxK, &cache, &workspace);
  EXPECT_EQ(cache.hits() + cache.misses(), 8u);
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.entries(), 4u);

  const DisclosureProfile warm =
      ImplicationProfile(*grouped, kMaxK, &cache, &workspace);
  EXPECT_EQ(cache.hits() + cache.misses(), 16u);
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cold.implication, warm.implication);
  EXPECT_EQ(cold.implication_log_r, warm.implication_log_r);

  // A cache holding {1,1} at the profile's budget and {2,1} below it: only
  // {1,1,1}, {3,1} and the upgrade of {2,1} are new to it.
  DisclosureCache partial;
  partial.GetOrCompute(std::vector<uint32_t>{1, 1}, kMaxK + 1);
  partial.GetOrCompute(std::vector<uint32_t>{2, 1}, 1);
  const uint64_t requests_before = partial.hits() + partial.misses();
  const uint64_t misses_before = partial.misses();
  const DisclosureProfile mixed = ImplicationProfile(*grouped, kMaxK, &partial);
  EXPECT_EQ(partial.hits() + partial.misses() - requests_before, 8u);
  EXPECT_EQ(partial.misses() - misses_before, 3u);
  EXPECT_EQ(cold.implication, mixed.implication);
  EXPECT_EQ(cold.implication_log_r, mixed.implication_log_r);
}

TEST(DisclosureCacheTest, SingleValuedBucketProfilesInClosedForm) {
  // A bucket whose tuples all carry one value discloses it at k = 0, so a
  // node holding one is profiled in closed form, with no cache request:
  // the sweep's curves (log R_min = kLogZero, disclosure 1 at every
  // budget) and the sweep's Σ n_b². The bucket goes first, in the middle
  // and last among MultiValuedBuckets().
  const std::vector<std::pair<size_t, std::vector<uint32_t>>> placements = {
      {0, {1, 0, 0, 0}}, {4, {0, 0, 3, 0}}, {8, {0, 0, 0, 2}}};
  DisclosureCache cache;
  Minimize2Workspace workspace;
  for (const auto& [position, single] : placements) {
    std::vector<std::vector<uint32_t>> histograms = MultiValuedBuckets();
    histograms.insert(histograms.begin() + static_cast<ptrdiff_t>(position),
                      single);
    const BucketTable fixture = TableOfBuckets(histograms);
    const LatticeNode node{0};
    auto bucketization = BucketizeAtNode(fixture.table, fixture.qis, node, 1);
    ASSERT_TRUE(bucketization.ok()) << bucketization.status();
    auto grouped = NodeHistograms::AtNode(fixture.table, fixture.qis, node, 1);
    ASSERT_TRUE(grouped.ok()) << grouped.status();
    ASSERT_EQ(grouped->num_buckets(), 9u);
    const double discernibility =
        ComputeUtility(fixture.table, fixture.qis, node, *bucketization)
            .discernibility;
    for (size_t max_k = 0; max_k <= 9; ++max_k) {
      SCOPED_TRACE("single-valued bucket at " + std::to_string(position) +
                   ", max_k " + std::to_string(max_k));
      const uint64_t hits = cache.hits();
      const uint64_t misses = cache.misses();
      const size_t entries = cache.entries();
      double sum_of_squares = -1.0;
      const DisclosureProfile actual = ImplicationProfile(
          *grouped, max_k, &cache, &workspace, &sum_of_squares);
      const DisclosureProfile expected =
          DisclosureAnalyzer(*bucketization).Profile(max_k);
      EXPECT_EQ(actual.implication, expected.implication);
      EXPECT_EQ(actual.implication_log_r, expected.implication_log_r);
      EXPECT_EQ(actual.implication_log_r,
                std::vector<LogProb>(max_k + 1, kLogZero));
      EXPECT_EQ(cache.hits(), hits);
      EXPECT_EQ(cache.misses(), misses);
      EXPECT_EQ(cache.entries(), entries);
      EXPECT_EQ(sum_of_squares, discernibility);
    }
  }
}

TEST(Minimize2EdgeTest, WitnessSpansBucketsWhenTargetBucketSaturates) {
  // Target bucket {2,1} saturates at one antecedent (d-1 = 1); with k = 3
  // the remaining atoms must land somewhere. Disclosure is 1 and the
  // witness remains a valid formula.
  auto fixture = MakeBuckets({{2, 1, 0, 0}, {1, 1, 1, 1}}, 4);
  DisclosureAnalyzer analyzer(fixture.bucketization);
  const WorstCaseDisclosure result = analyzer.MaxDisclosureImplications(3);
  EXPECT_NEAR(result.disclosure, 1.0, kProbabilityEpsilon);
  EXPECT_TRUE(result.ToFormula().Validate().ok());
}

TEST(Minimize2EdgeTest, SingleTupleBucketsDiscloseImmediately) {
  auto fixture = MakeBuckets({{1, 0}, {0, 1}}, 2);
  DisclosureAnalyzer analyzer(fixture.bucketization);
  const WorstCaseDisclosure result = analyzer.MaxDisclosureImplications(0);
  EXPECT_NEAR(result.disclosure, 1.0, kProbabilityEpsilon);
  EXPECT_TRUE(result.antecedents.empty());
}

TEST(Minimize2EdgeTest, LargeBucketNumericStability) {
  // One bucket with 40,000 tuples over 14 near-uniform values: the DP's
  // products of many near-one factors must stay in (0, 1) and the curve
  // must remain monotone.
  std::vector<uint32_t> histogram(14);
  for (size_t s = 0; s < 14; ++s) {
    histogram[s] = 2800 + static_cast<uint32_t>(s * 17);
  }
  auto fixture = MakeBuckets({histogram}, 14);
  DisclosureAnalyzer analyzer(fixture.bucketization);
  const std::vector<double> curve = analyzer.ImplicationCurve(13);
  for (size_t k = 0; k < curve.size(); ++k) {
    EXPECT_GT(curve[k], 0.0);
    EXPECT_LE(curve[k], 1.0 + 1e-12);
    if (k > 0) {
      EXPECT_GE(curve[k] + 1e-12, curve[k - 1]);
    }
  }
  EXPECT_NEAR(curve[13], 1.0, 1e-9);  // 14 values, 13 implications
}

TEST(Minimize2EdgeTest, ManyIdenticalBucketsShareOneTable) {
  std::vector<std::vector<uint32_t>> histograms(200, {3, 2, 1});
  auto fixture = MakeBuckets(histograms, 3);
  DisclosureCache cache;
  DisclosureAnalyzer analyzer(fixture.bucketization, &cache);
  const double d = analyzer.MaxDisclosureImplications(2).disclosure;
  EXPECT_EQ(cache.entries(), 1u);
  // Identical buckets: the answer equals the single-bucket answer.
  auto single = MakeBuckets({{3, 2, 1}}, 3);
  DisclosureAnalyzer single_analyzer(single.bucketization);
  EXPECT_NEAR(d, single_analyzer.MaxDisclosureImplications(2).disclosure,
              1e-12);
}

TEST(Minimize2EdgeTest, KZeroMatchesFrequencyRatioEverywhere) {
  Rng rng(31337);
  for (int trial = 0; trial < 20; ++trial) {
    auto histograms = testing::RandomHistograms(&rng, 3, 5, 8);
    auto fixture = MakeBuckets(histograms, 5);
    DisclosureAnalyzer analyzer(fixture.bucketization);
    EXPECT_NEAR(analyzer.MaxDisclosureImplications(0).disclosure,
                fixture.bucketization.MaxFrequencyRatio(), 1e-12);
  }
}

}  // namespace
}  // namespace cksafe
