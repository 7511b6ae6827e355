// Scalar-vs-SIMD differential fuzz (satellite of PR 7): random bucket
// shapes — including kLogInfeasible-dense rows and saturated buckets whose
// (-inf) MINIMIZE1 floors meet +inf prefix minima in NaN-producing pruning
// bound sums — are run through the full kernel surface (forward sweep,
// argmin choices, suffix rows, per-bucket sweep, MinLogRow composition,
// row-granular incremental recomputation) under every usable backend and
// compared against the scalar reference with exact double equality. This
// proves the vector path's tile-granularity pruning conservative-exact on
// shapes nobody hand-picked, not just spot-checked at the stress shapes
// (simd_kernel_test). Seeded via TestSeed/SeedTrace; iteration volume
// scales with CKSAFE_TEST_ITERS for the nightly long-run profile.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "cksafe/core/logprob.h"
#include "cksafe/core/minimize2.h"
#include "cksafe/simd/dispatch.h"
#include "cksafe/util/random.h"
#include "testing_util.h"

namespace cksafe {
namespace {

class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) { SetSimdLevelForTest(level); }
  ~ScopedSimdLevel() { ClearSimdLevelForTest(); }
};

std::vector<SimdLevel> UsableVectorLevels() {
  std::vector<SimdLevel> levels;
  if (SimdLevelUsable(SimdLevel::kAvx2)) levels.push_back(SimdLevel::kAvx2);
  return levels;
}

/// A pool of random MINIMIZE1 tables for one fuzz round. The pool always
/// contains the two saturation-heavy histograms ({1} and {2, 1}): with one
/// or two persons the minimum probability hits log 0 at tiny budgets, so
/// the f floors are -inf wherever the sweep looks, the early with_a rows
/// are kLogInfeasible-dense, and every pruning bound of the form
/// (-inf) + kLogInfeasible evaluates NaN — the exact traps the vector
/// pruning must survive without diverging.
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

std::vector<Minimize2Bucket> RandomBuckets(Rng* rng, const TablePool& pool,
                                           size_t num_buckets) {
  std::vector<Minimize2Bucket> buckets(num_buckets);
  for (auto& bucket : buckets) {
    const size_t pick = rng->NextBelow(pool.tables.size());
    bucket.table = pool.tables[pick];
    bucket.ratio = pool.ratios[pick];
  }
  return buckets;
}

/// Full kernel surface under one backend.
struct Outputs {
  std::vector<LogProb> curve;
  std::vector<uint16_t> no_choices;
  std::vector<uint16_t> wa_choices;
  std::vector<uint8_t> wa_branches;
  std::vector<LogProb> suffix;
  std::vector<LogProb> per_bucket;
};

Outputs RunSurface(const std::vector<Minimize2Bucket>& buckets, size_t k) {
  Outputs out;
  Minimize2Forward dp(k);
  dp.Recompute(buckets, 0);
  for (size_t h = 0; h <= k; ++h) out.curve.push_back(dp.LogRMinAt(h));
  out.no_choices = dp.NoChoicesForTest();
  out.wa_choices = dp.WaChoicesForTest();
  out.wa_branches = dp.WaBranchesForTest();
  out.suffix = ComputeNoASuffix(buckets, k);
  out.per_bucket = PerBucketLogRatioSweep(buckets, k, dp, out.suffix);
  return out;
}

TEST(SimdDifferentialFuzzTest, RandomShapesBitMatchScalarEverywhere) {
  const std::vector<SimdLevel> vector_levels = UsableVectorLevels();
  if (vector_levels.empty()) {
    GTEST_SKIP() << "no vector backend usable on this build/host; the "
                    "scalar path is pinned by simd_kernel_test";
  }
  const uint64_t seed = testing::TestSeed(0x51adf422ULL);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  const size_t iters = testing::TestIters(32);
  for (size_t iter = 0; iter < iters; ++iter) {
    // Mostly small-k rounds with a multi-tile k (> 2 * kScanTile) every
    // eighth round, so both the vectorized chunks and the tile-boundary
    // pruning decisions get traffic.
    const size_t k = (iter % 8 == 7) ? 130 + rng.NextBelow(100)
                                     : 1 + rng.NextBelow(96);
    const size_t m = 1 + rng.NextBelow(32);
    SCOPED_TRACE("iter=" + std::to_string(iter) + " m=" + std::to_string(m) +
                 " k=" + std::to_string(k));
    const TablePool pool = MakePool(&rng, k + 1);
    const std::vector<Minimize2Bucket> buckets = RandomBuckets(&rng, pool, m);

    Outputs reference;
    {
      ScopedSimdLevel scoped(SimdLevel::kScalar);
      reference = RunSurface(buckets, k);
    }
    for (SimdLevel level : vector_levels) {
      SCOPED_TRACE(std::string("backend=") + SimdLevelName(level));
      ScopedSimdLevel scoped(level);
      const Outputs candidate = RunSurface(buckets, k);
      // Exact double equality throughout: bit-identity, no tolerance.
      ASSERT_EQ(candidate.curve, reference.curve);
      ASSERT_EQ(candidate.no_choices, reference.no_choices);
      ASSERT_EQ(candidate.wa_choices, reference.wa_choices);
      ASSERT_EQ(candidate.wa_branches, reference.wa_branches);
      ASSERT_EQ(candidate.suffix, reference.suffix);
      ASSERT_EQ(candidate.per_bucket, reference.per_bucket);
    }

    // Every fourth round also fuzzes the incremental path: mutate one
    // bucket, recompute only the dirty suffix under a vector backend, and
    // compare against a scalar from-scratch sweep of the mutated inputs.
    if (iter % 4 == 0 && m >= 2) {
      std::vector<Minimize2Bucket> mutated = buckets;
      const size_t dirty = rng.NextBelow(m);
      const size_t pick = rng.NextBelow(pool.tables.size());
      mutated[dirty].table = pool.tables[pick];
      mutated[dirty].ratio = pool.ratios[pick];
      Outputs mutated_reference;
      {
        ScopedSimdLevel scoped(SimdLevel::kScalar);
        mutated_reference = RunSurface(mutated, k);
      }
      const SimdLevel level = vector_levels[iter % vector_levels.size()];
      SCOPED_TRACE(std::string("incremental backend=") + SimdLevelName(level));
      ScopedSimdLevel scoped(level);
      Minimize2Forward dp(k);
      dp.Recompute(buckets, 0);
      dp.Recompute(mutated, dirty);
      for (size_t h = 0; h <= k; ++h) {
        ASSERT_EQ(dp.LogRMinAt(h), mutated_reference.curve[h]) << "h=" << h;
      }
      ASSERT_EQ(dp.WaChoicesForTest(), mutated_reference.wa_choices);
    }
  }
}

TEST(SimdDifferentialFuzzTest, SaturatedSingletonWorldHitsNaNBoundsExactly) {
  // The directed worst case, kept deterministic on top of the fuzz: every
  // bucket is the {1} singleton, so f[h >= 1] = -inf (kLogZero), row-1
  // with_a prefix minima are +inf, and each branch's very first pruning
  // bound is the NaN (-inf) + kLogInfeasible sum. All backends must agree
  // bit-for-bit — and with the known closed form: the target bucket's
  // MINIMIZE1(t + 1) always rules out the one person's only value, so the
  // whole log-ratio curve sits at log 0.
  constexpr size_t kAtoms = 70;  // > kScanTile: NaN bounds on both tiles
  auto table = std::make_shared<const Minimize1Table>(
      std::vector<uint32_t>{1}, kAtoms + 1);
  const std::vector<Minimize2Bucket> buckets(
      5, Minimize2Bucket{table, 1.0});
  Outputs reference;
  {
    ScopedSimdLevel scoped(SimdLevel::kScalar);
    reference = RunSurface(buckets, kAtoms);
  }
  for (size_t h = 0; h <= kAtoms; ++h) {
    EXPECT_EQ(reference.curve[h], kLogZero) << "h=" << h;
  }
  for (SimdLevel level : UsableVectorLevels()) {
    SCOPED_TRACE(std::string("backend=") + SimdLevelName(level));
    ScopedSimdLevel scoped(level);
    const Outputs candidate = RunSurface(buckets, kAtoms);
    EXPECT_EQ(candidate.curve, reference.curve);
    EXPECT_EQ(candidate.no_choices, reference.no_choices);
    EXPECT_EQ(candidate.wa_choices, reference.wa_choices);
    EXPECT_EQ(candidate.wa_branches, reference.wa_branches);
    EXPECT_EQ(candidate.suffix, reference.suffix);
    EXPECT_EQ(candidate.per_bucket, reference.per_bucket);
  }
}

}  // namespace
}  // namespace cksafe
