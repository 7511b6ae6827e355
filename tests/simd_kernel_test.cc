// Bit-identity of the runtime-dispatched scan backends (simd/dispatch.h):
// at every (m, k) stress shape kernel_stress_test runs, every usable
// backend must reproduce the scalar reference exactly — the full LogRMin
// columns, every recorded argmin choice, the suffix rows, the per-bucket
// sweep, and the end-to-end publisher frontier. Exact double equality
// everywhere; no tolerances. On hosts (or builds — the no-AVX2 CI job)
// where only the scalar backend is usable, the same shapes still run to
// pin the fallback path, and the dispatch surface is asserted to degrade
// to scalar rather than abort.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cksafe/adult/adult.h"
#include "cksafe/core/logprob.h"
#include "cksafe/core/minimize2.h"
#include "cksafe/search/publisher.h"
#include "cksafe/simd/dispatch.h"

namespace cksafe {
namespace {

/// Restores the dispatch default on scope exit, so one failing test can't
/// leak a forced backend into the rest of the suite.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) { SetSimdLevelForTest(level); }
  ~ScopedSimdLevel() { ClearSimdLevelForTest(); }
};

/// Every backend the binary + machine can actually run.
std::vector<SimdLevel> UsableLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (SimdLevelUsable(SimdLevel::kAvx2)) levels.push_back(SimdLevel::kAvx2);
  return levels;
}

std::vector<Minimize2Bucket> IdenticalBuckets(
    size_t count, const std::vector<uint32_t>& histogram, size_t budget) {
  auto table = std::make_shared<const Minimize1Table>(histogram, budget);
  uint64_t n = 0;
  for (uint32_t c : histogram) n += c;
  return std::vector<Minimize2Bucket>(
      count, Minimize2Bucket{table, static_cast<double>(n) /
                                        static_cast<double>(histogram[0])});
}

/// Everything one full kernel pass produces, captured for comparison.
struct KernelOutputs {
  std::vector<LogProb> log_r_min;        // LogRMinAt(0..k)
  std::vector<uint16_t> no_choices;      // full argmin arrays
  std::vector<uint16_t> wa_choices;
  std::vector<uint8_t> wa_branches;
  std::vector<Minimize2Placement> witness;
  std::vector<LogProb> suffix;           // ComputeNoASuffix rows
  std::vector<LogProb> per_bucket;       // PerBucketLogRatioSweep
};

KernelOutputs RunKernel(const std::vector<Minimize2Bucket>& inputs, size_t k,
                        SimdLevel level) {
  ScopedSimdLevel scoped(level);
  KernelOutputs out;
  Minimize2Forward dp(k);
  dp.Recompute(inputs, 0);
  for (size_t h = 0; h <= k; ++h) out.log_r_min.push_back(dp.LogRMinAt(h));
  out.no_choices = dp.NoChoicesForTest();
  out.wa_choices = dp.WaChoicesForTest();
  out.wa_branches = dp.WaBranchesForTest();
  if (dp.LogRMin() != kLogInfeasible) out.witness = dp.WitnessPlacements();
  out.suffix = ComputeNoASuffix(inputs, k);
  out.per_bucket = PerBucketLogRatioSweep(inputs, k, dp, out.suffix);
  return out;
}

void ExpectBitIdentical(const KernelOutputs& reference,
                        const KernelOutputs& candidate, SimdLevel level) {
  SCOPED_TRACE(std::string("backend=") + SimdLevelName(level));
  // EXPECT_EQ on doubles is exact equality — the bit-identity contract.
  EXPECT_EQ(reference.log_r_min, candidate.log_r_min);
  EXPECT_EQ(reference.no_choices, candidate.no_choices);
  EXPECT_EQ(reference.wa_choices, candidate.wa_choices);
  EXPECT_EQ(reference.wa_branches, candidate.wa_branches);
  ASSERT_EQ(reference.witness.size(), candidate.witness.size());
  for (size_t i = 0; i < reference.witness.size(); ++i) {
    EXPECT_EQ(reference.witness[i].atoms, candidate.witness[i].atoms) << i;
    EXPECT_EQ(reference.witness[i].has_target, candidate.witness[i].has_target)
        << i;
  }
  EXPECT_EQ(reference.suffix, candidate.suffix);
  EXPECT_EQ(reference.per_bucket, candidate.per_bucket);
}

/// The exact (m, k) shapes kernel_stress_test runs, per the tentpole
/// contract: the SIMD differential must cover every stress shape.
struct StressShape {
  size_t buckets;
  size_t k;
  std::vector<uint32_t> histogram;
};

std::vector<StressShape> StressShapes() {
  return {
      {1200, 96, {5, 3, 2, 1, 1}},       // LargeBucketCountLargeBudget
      {40, 300, {6, 5, 4, 3, 2, 1}},     // BudgetBeyondHistoricalUint8Ceiling
      {400, 80, {9, 7, 5, 3, 1, 1, 1}},  // WideSweepColumnsBitMatch...
      {60, 64, {4, 2, 1}},               // WorkspaceReuse... (largest budget)
  };
}

TEST(SimdKernelTest, EveryBackendBitMatchesScalarAtEveryStressShape) {
  for (const StressShape& shape : StressShapes()) {
    SCOPED_TRACE("m=" + std::to_string(shape.buckets) +
                 " k=" + std::to_string(shape.k));
    const std::vector<Minimize2Bucket> inputs =
        IdenticalBuckets(shape.buckets, shape.histogram, shape.k + 1);
    const KernelOutputs reference =
        RunKernel(inputs, shape.k, SimdLevel::kScalar);
    // Saturating histograms make the full-budget minimum log 0 and large
    // stretches of the rows -inf/+inf: the shapes exercise masked lanes
    // and the NaN-producing pruning bounds, not just the happy path.
    ASSERT_NE(reference.log_r_min[shape.k], kLogInfeasible);
    for (SimdLevel level : UsableLevels()) {
      if (level == SimdLevel::kScalar) continue;
      ExpectBitIdentical(reference, RunKernel(inputs, shape.k, level), level);
    }
  }
}

TEST(SimdKernelTest, WorkspaceReuseBudgetLadderBitMatchesAcrossBackends) {
  // The arena path (Reset + Recompute) across the stress ladder of budget
  // changes in both directions, per backend, against the scalar fresh run.
  const std::vector<Minimize2Bucket> small = IdenticalBuckets(60, {4, 2, 1}, 130);
  for (size_t k : {size_t{12}, size_t{129}, size_t{5}, size_t{64}}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    const KernelOutputs reference = RunKernel(small, k, SimdLevel::kScalar);
    for (SimdLevel level : UsableLevels()) {
      ScopedSimdLevel scoped(level);
      SCOPED_TRACE(std::string("backend=") + SimdLevelName(level));
      Minimize2Workspace ws;
      Minimize2Forward& reused = ws.SweepForBudget(k);
      reused.Recompute(small, 0);
      for (size_t h = 0; h <= k; ++h) {
        ASSERT_EQ(reused.LogRMinAt(h), reference.log_r_min[h]) << "h=" << h;
      }
    }
  }
}

TEST(SimdKernelTest, IncrementalRowReuseBitMatchesAcrossBackends) {
  // Row-granular recomputation (the streaming engine's workhorse) must be
  // backend-independent too: recompute a dirty suffix under each backend
  // and compare against a scalar from-scratch sweep over the mutated
  // inputs — including a mid-sweep backend switch, which the per-sweep
  // kernel resolution makes safe.
  constexpr size_t kAtoms = 75;
  std::vector<Minimize2Bucket> inputs =
      IdenticalBuckets(300, {7, 4, 2, 1}, kAtoms + 1);
  const std::vector<Minimize2Bucket> mutated = [&] {
    std::vector<Minimize2Bucket> copy = inputs;
    const std::vector<uint32_t> other = {3, 3, 1};
    copy[120] = IdenticalBuckets(1, other, kAtoms + 1)[0];
    return copy;
  }();
  const KernelOutputs reference = RunKernel(mutated, kAtoms, SimdLevel::kScalar);
  for (SimdLevel level : UsableLevels()) {
    SCOPED_TRACE(std::string("backend=") + SimdLevelName(level));
    Minimize2Forward dp(kAtoms);
    {
      ScopedSimdLevel scalar_first(SimdLevel::kScalar);
      dp.Recompute(inputs, 0);  // clean prefix computed by scalar
    }
    ScopedSimdLevel scoped(level);
    dp.Recompute(mutated, 120);  // dirty suffix recomputed by `level`
    for (size_t h = 0; h <= kAtoms; ++h) {
      ASSERT_EQ(dp.LogRMinAt(h), reference.log_r_min[h]) << "h=" << h;
    }
    EXPECT_EQ(dp.NoChoicesForTest(), reference.no_choices);
    EXPECT_EQ(dp.WaChoicesForTest(), reference.wa_choices);
    EXPECT_EQ(dp.WaBranchesForTest(), reference.wa_branches);
  }
}

TEST(SimdKernelTest, PublisherFrontierBitMatchesAcrossBackends) {
  // End-to-end: the Incognito frontier, chosen node, and published column
  // must not depend on the backend — the whole-pipeline face of the
  // bit-identity contract.
  const Table table = GenerateSyntheticAdult(220, /*seed=*/19);
  const auto qis = AdultQuasiIdentifiers();
  ASSERT_TRUE(qis.ok()) << qis.status();
  PublisherOptions options;
  options.c = 0.6;
  options.k = 3;
  const Publisher publisher(options);

  std::optional<PublishedRelease> reference;
  {
    ScopedSimdLevel scoped(SimdLevel::kScalar);
    auto release = publisher.Publish(table, *qis, kAdultOccupationColumn);
    ASSERT_TRUE(release.ok()) << release.status();
    reference = *std::move(release);
  }
  for (SimdLevel level : UsableLevels()) {
    if (level == SimdLevel::kScalar) continue;
    SCOPED_TRACE(std::string("backend=") + SimdLevelName(level));
    ScopedSimdLevel scoped(level);
    auto release = publisher.Publish(table, *qis, kAdultOccupationColumn);
    ASSERT_TRUE(release.ok()) << release.status();
    EXPECT_EQ(release->node, reference->node);
    EXPECT_EQ(release->minimal_safe_nodes, reference->minimal_safe_nodes);
    EXPECT_EQ(release->worst_case.disclosure, reference->worst_case.disclosure);
    EXPECT_EQ(release->worst_case.log_r_min, reference->worst_case.log_r_min);
    EXPECT_EQ(release->published_sensitive, reference->published_sensitive);
  }
}

TEST(SimdKernelTest, DispatchSurfaceDegradesToScalarNeverAborts) {
  // The active level must always be usable, and forcing an unusable level
  // must degrade to the scalar kernels, not abort — the contract the
  // no-AVX2 CI build relies on to keep this very test meaningful there.
  EXPECT_TRUE(SimdLevelUsable(ActiveSimdLevel()));
  EXPECT_TRUE(SimdLevelUsable(SimdLevel::kScalar));
  EXPECT_STREQ(ScanKernelsFor(SimdLevel::kScalar).name, "scalar");
  if (!SimdLevelUsable(SimdLevel::kAvx2)) {
    EXPECT_STREQ(ScanKernelsFor(SimdLevel::kAvx2).name, "scalar");
    ScopedSimdLevel scoped(SimdLevel::kAvx2);
    EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  }
  // x86 binaries compile the AVX2 backend unless the no-AVX2 build
  // disabled it; either way the name matches what dispatch resolved.
  const SimdLevel active = ActiveSimdLevel();
  EXPECT_STREQ(ScanKernelsFor(active).name, SimdLevelName(active));
}

}  // namespace
}  // namespace cksafe
