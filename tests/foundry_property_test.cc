// Metamorphic properties of worst-case disclosure on foundry-generated
// worlds. Each test applies a structure-preserving transform to a random
// instance and checks the analyzer's output moves exactly as the theory
// says it must:
//
//  - transforms that leave the per-bucket histogram multiset untouched
//    (member reorder, sensitive relabeling, hierarchy group relabeling)
//    must leave every curve BIT-identical — the analyzer may depend on
//    nothing else;
//  - permuting bucket ORDER changes the accumulation order of the
//    MINIMIZE2 log-sum, so the implication curve is only equal to ~1e-9
//    (floating-point associativity), while the negation curve — a max of
//    independently computed per-bucket terms — stays bit-identical;
//  - duplicating every tuple m times fixes the k=0 posterior (same value
//    fractions) and can only shrink disclosure at k > 0: eliminating one
//    tuple removes a smaller fraction of each bucket.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cksafe/anon/bucketization.h"
#include "cksafe/core/disclosure.h"
#include "cksafe/foundry/hierarchy_foundry.h"
#include "cksafe/foundry/table_foundry.h"
#include "cksafe/lattice/lattice.h"
#include "testing_util.h"

namespace cksafe {
namespace {

constexpr size_t kMaxK = 5;
constexpr double kAssocTol = 1e-9;   // FP reassociation across buckets
constexpr double kScaleTol = 1e-12;  // same math, different literals

std::vector<std::vector<uint32_t>> HistogramsOf(const Bucketization& b) {
  std::vector<std::vector<uint32_t>> histograms;
  histograms.reserve(b.num_buckets());
  for (size_t i = 0; i < b.num_buckets(); ++i) {
    histograms.push_back(b.bucket(i).histogram);
  }
  return histograms;
}

// A random foundry world reduced to its per-bucket histograms.
std::vector<std::vector<uint32_t>> RandomWorld(Rng* rng, size_t* domain_out) {
  TableFoundryConfig config;
  config.seed = rng->NextUint64();
  config.num_rows = 40 + rng->NextBelow(120);
  config.quasi_identifiers = {
      ColumnSpec{"G", 3 + rng->NextBelow(6), true, ValueSkew::kZipf, 2}};
  config.sensitive =
      ColumnSpec{"S", 3 + rng->NextBelow(4), true, ValueSkew::kUniform, 1};
  auto table = TableFoundry::Generate(config);
  CKSAFE_CHECK(table.ok()) << table.status().ToString();
  auto buckets = BucketizeAtNode(
      *table,
      {QuasiIdentifier{0, std::make_shared<TreeHierarchy>(
                              TreeHierarchy::SuppressionOnly(
                                  table->schema().attribute(0)))}},
      LatticeNode{0}, /*sensitive_column=*/1);
  CKSAFE_CHECK(buckets.ok()) << buckets.status().ToString();
  *domain_out = config.sensitive.domain;
  return HistogramsOf(*buckets);
}

void ExpectBitIdentical(const DisclosureProfile& a,
                        const DisclosureProfile& b) {
  EXPECT_EQ(a.implication, b.implication);
  EXPECT_EQ(a.implication_log_r, b.implication_log_r);
  EXPECT_EQ(a.negation, b.negation);
}

TEST(FoundryPropertyTest, WithinBucketMemberOrderIsBitIdentical) {
  const uint64_t seed = testing::TestSeed(0xf00d01ULL);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  const size_t trials = testing::TestIters(8);
  for (size_t trial = 0; trial < trials; ++trial) {
    size_t domain = 0;
    const auto histograms = RandomWorld(&rng, &domain);
    const auto base = testing::MakeBuckets(histograms, domain);

    // Re-append each bucket's tuples in a shuffled order; the histograms —
    // the only state the analyzer may read — are untouched.
    Table table{Schema({base.table.schema().attribute(0)})};
    std::vector<std::vector<PersonId>> groups;
    PersonId next = 0;
    for (const auto& histogram : histograms) {
      std::vector<int32_t> values;
      for (size_t s = 0; s < histogram.size(); ++s) {
        values.insert(values.end(), histogram[s], static_cast<int32_t>(s));
      }
      rng.Shuffle(&values);
      std::vector<PersonId> members;
      for (int32_t v : values) {
        ASSERT_TRUE(table.AppendRow({v}).ok());
        members.push_back(next++);
      }
      groups.push_back(std::move(members));
    }
    const auto shuffled = BucketizeExplicit(table, groups, 0);
    ASSERT_TRUE(shuffled.ok());

    ExpectBitIdentical(DisclosureAnalyzer(base.bucketization).Profile(kMaxK),
                       DisclosureAnalyzer(*shuffled).Profile(kMaxK));
  }
}

TEST(FoundryPropertyTest, SensitiveRelabelingIsBitIdentical) {
  const uint64_t seed = testing::TestSeed(0xf00d02ULL);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  const size_t trials = testing::TestIters(8);
  for (size_t trial = 0; trial < trials; ++trial) {
    size_t domain = 0;
    const auto histograms = RandomWorld(&rng, &domain);

    std::vector<int32_t> perm(domain);
    for (size_t s = 0; s < domain; ++s) perm[s] = static_cast<int32_t>(s);
    rng.Shuffle(&perm);
    std::vector<std::vector<uint32_t>> relabeled(histograms.size());
    for (size_t b = 0; b < histograms.size(); ++b) {
      relabeled[b].assign(domain, 0);
      for (size_t s = 0; s < domain; ++s) {
        relabeled[b][static_cast<size_t>(perm[s])] = histograms[b][s];
      }
    }

    const auto base = testing::MakeBuckets(histograms, domain);
    const auto renamed = testing::MakeBuckets(relabeled, domain);
    ExpectBitIdentical(
        DisclosureAnalyzer(base.bucketization).Profile(kMaxK),
        DisclosureAnalyzer(renamed.bucketization).Profile(kMaxK));
  }
}

TEST(FoundryPropertyTest, BucketOrderPermutationPreservesCurves) {
  const uint64_t seed = testing::TestSeed(0xf00d03ULL);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  const size_t trials = testing::TestIters(8);
  for (size_t trial = 0; trial < trials; ++trial) {
    size_t domain = 0;
    const auto histograms = RandomWorld(&rng, &domain);
    auto shuffled = histograms;
    rng.Shuffle(&shuffled);

    const auto base = testing::MakeBuckets(histograms, domain);
    const auto permuted = testing::MakeBuckets(shuffled, domain);
    const DisclosureProfile a =
        DisclosureAnalyzer(base.bucketization).Profile(kMaxK);
    const DisclosureProfile b =
        DisclosureAnalyzer(permuted.bucketization).Profile(kMaxK);

    // Implication: the MINIMIZE2 DP folds buckets in order, so the curve
    // is mathematically invariant but only numerically equal.
    for (size_t k = 0; k <= kMaxK; ++k) {
      EXPECT_NEAR(a.implication[k], b.implication[k], kAssocTol) << "k=" << k;
    }
    // Negation: a max over per-bucket terms, each computed from one
    // bucket's histogram alone — reordering must be bit-identical.
    EXPECT_EQ(a.negation, b.negation);
  }
}

TEST(FoundryPropertyTest, DuplicateTupleScalingIsMonotone) {
  const uint64_t seed = testing::TestSeed(0xf00d04ULL);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  const size_t trials = testing::TestIters(6);
  for (size_t trial = 0; trial < trials; ++trial) {
    size_t domain = 0;
    const auto histograms = RandomWorld(&rng, &domain);
    const uint32_t m = 2 + static_cast<uint32_t>(rng.NextBelow(3));
    auto scaled = histograms;
    for (auto& histogram : scaled) {
      for (uint32_t& count : histogram) count *= m;
    }

    const auto base = testing::MakeBuckets(histograms, domain);
    const auto bigger = testing::MakeBuckets(scaled, domain);
    const DisclosureProfile a =
        DisclosureAnalyzer(base.bucketization).Profile(kMaxK);
    const DisclosureProfile b =
        DisclosureAnalyzer(bigger.bucketization).Profile(kMaxK);

    // k = 0: the no-knowledge posterior sees identical value fractions.
    EXPECT_NEAR(a.implication[0], b.implication[0], kScaleTol);
    // k > 0: each eliminated tuple is a smaller share of a scaled bucket,
    // so worst-case disclosure cannot grow.
    for (size_t k = 1; k <= kMaxK; ++k) {
      EXPECT_LE(b.implication[k], a.implication[k] + kScaleTol) << "k=" << k;
      EXPECT_LE(b.negation[k], a.negation[k] + kScaleTol) << "k=" << k;
    }
  }
}

TEST(FoundryPropertyTest, HierarchyGroupRelabelingIsBitIdentical) {
  const uint64_t seed = testing::TestSeed(0xf00d05ULL);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  const size_t trials = testing::TestIters(6);
  for (size_t trial = 0; trial < trials; ++trial) {
    TableFoundryConfig config;
    config.seed = rng.NextUint64();
    config.num_rows = 60 + rng.NextBelow(120);
    config.quasi_identifiers = {
        ColumnSpec{"Zip", 8, true, ValueSkew::kZipf, 2},
        ColumnSpec{"Age", 12, false, ValueSkew::kUniform, 1}};
    config.sensitive = ColumnSpec{"S", 4, true, ValueSkew::kUniform, 1};
    auto table = TableFoundry::Generate(config);
    ASSERT_TRUE(table.ok());
    HierarchyFoundryConfig ladders;
    ladders.seed = rng.NextUint64();
    auto qis = HierarchyFoundry::MakeQuasiIdentifiers(*table, 2, ladders);
    ASSERT_TRUE(qis.ok());

    std::vector<QuasiIdentifier> renamed;
    LatticeNode node;
    for (const QuasiIdentifier& qi : *qis) {
      renamed.push_back(QuasiIdentifier{
          qi.column,
          std::make_shared<testing::RelabeledHierarchy>(qi.hierarchy, &rng)});
      // A mid-ladder level so group ids actually matter.
      node.push_back(static_cast<int>(qi.hierarchy->num_levels() / 2));
    }

    const auto base = BucketizeAtNode(*table, *qis, node, 2);
    const auto relabeled = BucketizeAtNode(*table, renamed, node, 2);
    ASSERT_TRUE(base.ok() && relabeled.ok());
    // Same partition, same first-occurrence bucket order.
    ASSERT_EQ(base->num_buckets(), relabeled->num_buckets());
    ExpectBitIdentical(DisclosureAnalyzer(*base).Profile(kMaxK),
                       DisclosureAnalyzer(*relabeled).Profile(kMaxK));
  }
}

}  // namespace
}  // namespace cksafe
