// Stress configuration for the log-space MINIMIZE2 kernel: large bucket
// counts and large atom budgets — including budgets beyond the historical
// uint8 ceiling of 255 — inside the 5-second `ctest -L unit` budget
// (DESIGN.md §9, satellite of PR 4). The point is to run the widened
// choice storage, the tiled scans, and the pruning bounds at sizes the
// property suites don't reach, while asserting the structural contracts:
// finiteness, monotonicity, column/point bit-identity, arena reuse,
// dirty-suffix recomputation, and the saturated world whose pruning
// bounds are NaN.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "cksafe/core/logprob.h"
#include "cksafe/core/minimize2.h"
#include "cksafe/util/random.h"
#include "testing_util.h"

namespace cksafe {
namespace {

std::vector<Minimize2Bucket> IdenticalBuckets(
    size_t count, const std::vector<uint32_t>& histogram, size_t budget) {
  auto table = std::make_shared<const Minimize1Table>(histogram, budget);
  uint64_t n = 0;
  for (uint32_t c : histogram) n += c;
  return std::vector<Minimize2Bucket>(
      count, Minimize2Bucket{
                 table, static_cast<double>(n) /
                            static_cast<double>(histogram[0])});
}

TEST(KernelStressTest, LargeBucketCountLargeBudget) {
  // 1200 buckets at budget 96: ~11M candidate scans without pruning.
  constexpr size_t kBuckets = 1200;
  constexpr size_t kAtoms = 96;
  const std::vector<Minimize2Bucket> inputs =
      IdenticalBuckets(kBuckets, {5, 3, 2, 1, 1}, kAtoms + 1);
  Minimize2Forward dp(kAtoms);
  dp.Recompute(inputs, 0);
  // Small buckets saturate quickly: the full-budget minimum is log 0, but
  // every column must be feasible and the curve monotone.
  for (size_t h = 1; h <= kAtoms; ++h) {
    ASSERT_NE(dp.LogRMinAt(h), kLogInfeasible) << "h=" << h;
    EXPECT_LE(dp.LogRMinAt(h), dp.LogRMinAt(h - 1)) << "h=" << h;
  }
  EXPECT_LT(dp.LogRMinAt(1), 0.0);
}

TEST(KernelStressTest, BudgetBeyondHistoricalUint8Ceiling) {
  // k = 300 would have CHECK-aborted before the uint16 widening.
  constexpr size_t kBuckets = 40;
  constexpr size_t kAtoms = 300;
  ASSERT_TRUE(Minimize2Forward::ValidateBudget(kAtoms).ok());
  const std::vector<uint32_t> histogram = {6, 5, 4, 3, 2, 1};
  const std::vector<Minimize2Bucket> inputs =
      IdenticalBuckets(kBuckets, histogram, kAtoms + 1);
  Minimize2Forward dp(kAtoms);
  dp.Recompute(inputs, 0);
  for (size_t h = 1; h <= kAtoms; ++h) {
    ASSERT_NE(dp.LogRMinAt(h), kLogInfeasible) << "h=" << h;
    EXPECT_LE(dp.LogRMinAt(h), dp.LogRMinAt(h - 1)) << "h=" << h;
  }
  // The witness at full budget still reconstructs (uint16 choices).
  const std::vector<Minimize2Placement> placements = dp.WitnessPlacements();
  uint32_t placed = 0;
  for (const Minimize2Placement& p : placements) placed += p.atoms;
  EXPECT_EQ(placed, kAtoms);

  // The user-facing validation accepts exactly up to the practical
  // analysis cap and reports a clean Status beyond it (the CLI path
  // relies on this; the uint16 storage ceiling is far higher and only
  // guards direct kernel users via the constructor CHECK).
  EXPECT_TRUE(
      Minimize2Forward::ValidateBudget(Minimize2Forward::kMaxAnalysisBudget)
          .ok());
  const Status absurd = Minimize2Forward::ValidateBudget(
      Minimize2Forward::kMaxAnalysisBudget + 1);
  EXPECT_EQ(absurd.code(), StatusCode::kOutOfRange);
  EXPECT_LT(Minimize2Forward::kMaxAnalysisBudget,
            Minimize2Forward::kMaxBudget);
}

TEST(KernelStressTest, WideSweepColumnsBitMatchDedicatedSweeps) {
  // The one-sweep profile contract at stress sizes: column h of a wide
  // sweep == a dedicated budget-h sweep, bit for bit, pruning included.
  constexpr size_t kBuckets = 400;
  constexpr size_t kAtoms = 80;
  const std::vector<Minimize2Bucket> inputs =
      IdenticalBuckets(kBuckets, {9, 7, 5, 3, 1, 1, 1}, kAtoms + 1);
  Minimize2Forward wide(kAtoms);
  wide.Recompute(inputs, 0);
  for (size_t h : {size_t{0}, size_t{7}, size_t{33}, size_t{80}}) {
    Minimize2Forward dedicated(h);
    dedicated.Recompute(inputs, 0);
    EXPECT_EQ(wide.LogRMinAt(h), dedicated.LogRMin()) << "h=" << h;
  }
}

TEST(KernelStressTest, WorkspaceReuseAcrossBudgetsIsValueIdentical) {
  // The arena path (Reset + Recompute) must produce the same values as a
  // freshly constructed sweep, across budget changes in both directions.
  const std::vector<Minimize2Bucket> small =
      IdenticalBuckets(60, {4, 2, 1}, 130);
  Minimize2Workspace ws;
  for (size_t k : {size_t{12}, size_t{129}, size_t{5}, size_t{64}}) {
    Minimize2Forward& reused = ws.SweepForBudget(k);
    reused.Recompute(small, 0);
    Minimize2Forward fresh(k);
    fresh.Recompute(small, 0);
    for (size_t h = 0; h <= k; ++h) {
      ASSERT_EQ(reused.LogRMinAt(h), fresh.LogRMinAt(h))
          << "k=" << k << " h=" << h;
    }
  }
}

/// Everything a forward sweep records, captured for exact comparison.
struct SweepRecord {
  std::vector<LogProb> curve;  // LogRMinAt(0..k)
  std::vector<LogProb> no_a;   // NoALogRow(0..m), k + 1 entries each
  std::vector<uint16_t> no_choices;
  std::vector<uint16_t> wa_choices;
  std::vector<uint8_t> wa_branches;
};

SweepRecord Record(const Minimize2Forward& dp) {
  SweepRecord out;
  for (size_t h = 0; h <= dp.k(); ++h) out.curve.push_back(dp.LogRMinAt(h));
  for (size_t i = 0; i <= dp.num_buckets(); ++i) {
    const LogProb* row = dp.NoALogRow(i);
    out.no_a.insert(out.no_a.end(), row, row + dp.k() + 1);
  }
  out.no_choices = dp.NoChoicesForTest();
  out.wa_choices = dp.WaChoicesForTest();
  out.wa_branches = dp.WaBranchesForTest();
  return out;
}

SweepRecord FreshSweep(const std::vector<Minimize2Bucket>& buckets,
                       size_t k) {
  Minimize2Forward dp(k);
  dp.Recompute(buckets, 0);
  return Record(dp);
}

// EXPECT_EQ on doubles is exact equality: bit-identity, no tolerance.
void ExpectSameSweep(const SweepRecord& actual, const SweepRecord& expected) {
  EXPECT_EQ(actual.curve, expected.curve);
  EXPECT_EQ(actual.no_a, expected.no_a);
  EXPECT_EQ(actual.no_choices, expected.no_choices);
  EXPECT_EQ(actual.wa_choices, expected.wa_choices);
  EXPECT_EQ(actual.wa_branches, expected.wa_branches);
}

TEST(KernelStressTest, DirtySuffixRecomputeMatchesFreshSweep) {
  // Row-granular recomputation (the streaming engine's workhorse): keep
  // the clean prefix, recompute rows past the mutated bucket, and match a
  // from-scratch sweep of the mutated inputs bit for bit.
  constexpr size_t kAtoms = 75;
  const std::vector<Minimize2Bucket> inputs =
      IdenticalBuckets(300, {7, 4, 2, 1}, kAtoms + 1);
  std::vector<Minimize2Bucket> mutated = inputs;
  mutated[120] = IdenticalBuckets(1, {3, 3, 1}, kAtoms + 1)[0];
  Minimize2Forward dp(kAtoms);
  dp.Recompute(inputs, 0);
  dp.Recompute(mutated, 120);
  ExpectSameSweep(Record(dp), FreshSweep(mutated, kAtoms));
}

/// A pool of random MINIMIZE1 tables for one round. The pool always holds
/// the two saturation-heavy histograms {1} and {2, 1}: with one or two
/// persons the minimum probability hits log 0 at tiny budgets, so the f
/// floors are -inf wherever the sweep looks, the early with_a rows are
/// kLogInfeasible-dense, and the pruning bounds (-inf) + kLogInfeasible
/// evaluate NaN.
struct TablePool {
  std::vector<std::shared_ptr<const Minimize1Table>> tables;
  std::vector<double> ratios;
};

TablePool MakePool(Rng* rng, size_t budget) {
  TablePool pool;
  const std::vector<std::vector<uint32_t>> forced = {{1}, {2, 1}};
  for (const auto& counts : forced) {
    pool.tables.push_back(
        std::make_shared<const Minimize1Table>(counts, budget));
    uint32_t n = 0;
    for (uint32_t c : counts) n += c;
    pool.ratios.push_back(static_cast<double>(n) /
                          static_cast<double>(counts.back()));
  }
  const size_t extra = 2 + rng->NextBelow(4);
  for (size_t i = 0; i < extra; ++i) {
    // Descending positive counts, small enough to saturate at reachable
    // budgets reasonably often.
    std::vector<uint32_t> counts;
    const size_t d = 1 + rng->NextBelow(6);
    uint32_t prev = 1 + static_cast<uint32_t>(rng->NextBelow(7));
    for (size_t v = 0; v < d; ++v) {
      counts.push_back(prev);
      if (prev > 1) prev -= static_cast<uint32_t>(rng->NextBelow(prev));
    }
    uint32_t n = 0;
    for (uint32_t c : counts) n += c;
    pool.tables.push_back(
        std::make_shared<const Minimize1Table>(counts, budget));
    const uint32_t s0 = counts[rng->NextBelow(counts.size())];
    pool.ratios.push_back(static_cast<double>(n) / static_cast<double>(s0));
  }
  return pool;
}

Minimize2Bucket PickBucket(Rng* rng, const TablePool& pool) {
  const size_t pick = rng->NextBelow(pool.tables.size());
  return Minimize2Bucket{pool.tables[pick], pool.ratios[pick]};
}

TEST(KernelStressTest, RandomDirtySuffixRecomputeMatchesFreshSweep) {
  // The same contract on shapes nobody hand-picked: random bucket worlds,
  // one bucket mutated, the dirty suffix recomputed.
  const uint64_t seed = testing::TestSeed(0x51adf422ULL);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  const size_t iters = testing::TestIters(32);
  for (size_t iter = 0; iter < iters; ++iter) {
    // Mostly small-k rounds, with a k past 2 * kScanTile (64) every
    // eighth round so scans cross tile boundaries.
    const size_t k = (iter % 8 == 7) ? 130 + rng.NextBelow(100)
                                     : 1 + rng.NextBelow(96);
    const size_t m = 1 + rng.NextBelow(32);
    SCOPED_TRACE("iter=" + std::to_string(iter) + " m=" + std::to_string(m) +
                 " k=" + std::to_string(k));
    const TablePool pool = MakePool(&rng, k + 1);
    std::vector<Minimize2Bucket> buckets(m);
    for (Minimize2Bucket& bucket : buckets) bucket = PickBucket(&rng, pool);
    std::vector<Minimize2Bucket> mutated = buckets;
    const size_t dirty = rng.NextBelow(m);
    mutated[dirty] = PickBucket(&rng, pool);

    Minimize2Forward dp(k);
    dp.Recompute(buckets, 0);
    dp.Recompute(mutated, dirty);
    ExpectSameSweep(Record(dp), FreshSweep(mutated, k));
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(KernelStressTest, SaturatedSingletonWorldIsLogZeroAtEveryBudget) {
  // Every bucket is the {1} singleton, so f[h >= 1] = -inf (kLogZero),
  // row-1 with_a prefix minima are +inf, and each branch's first pruning
  // bound is the NaN (-inf) + kLogInfeasible sum. The target bucket's
  // MINIMIZE1(t + 1) always rules out the one person's only value, so the
  // whole log-ratio curve sits at log 0.
  constexpr size_t kAtoms = 70;  // > kScanTile: NaN bounds on both tiles
  auto table = std::make_shared<const Minimize1Table>(
      std::vector<uint32_t>{1}, kAtoms + 1);
  const std::vector<Minimize2Bucket> buckets(5, Minimize2Bucket{table, 1.0});
  Minimize2Forward dp(kAtoms);
  dp.Recompute(buckets, 0);
  for (size_t h = 0; h <= kAtoms; ++h) {
    EXPECT_EQ(dp.LogRMinAt(h), kLogZero) << "h=" << h;
  }
  const std::vector<LogProb> per_bucket = PerBucketLogRatioSweep(
      buckets, kAtoms, dp, ComputeNoASuffix(buckets, kAtoms));
  for (size_t j = 0; j < buckets.size(); ++j) {
    EXPECT_EQ(per_bucket[j], kLogZero) << "bucket " << j;
  }
}

}  // namespace
}  // namespace cksafe
