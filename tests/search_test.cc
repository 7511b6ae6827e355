// Lattice search tests: Incognito-style minimal-node enumeration against an
// exhaustive oracle, pruning equivalence, chain binary search, utility
// metrics and the end-to-end Publisher.

#include "cksafe/search/lattice_search.h"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <set>

#include "cksafe/adult/adult.h"
#include "cksafe/anon/diversity.h"
#include "cksafe/core/disclosure.h"
#include "cksafe/search/publisher.h"
#include "cksafe/search/utility.h"
#include "testing_util.h"

namespace cksafe {
namespace {

using testing::kHospitalSensitiveColumn;
using testing::MakeHospitalTable;

// Exhaustive minimal-safe oracle for small lattices.
std::set<uint64_t> OracleMinimalSafe(const GeneralizationLattice& lattice,
                                     const NodePredicate& is_safe) {
  std::set<uint64_t> safe;
  const auto all = lattice.AllNodes();
  for (const auto& node : all) {
    if (is_safe(node)) safe.insert(lattice.Encode(node));
  }
  std::set<uint64_t> minimal;
  for (const auto& node : all) {
    if (safe.count(lattice.Encode(node)) == 0) continue;
    bool child_safe = false;
    for (const auto& child : lattice.Children(node)) {
      if (safe.count(lattice.Encode(child)) > 0) child_safe = true;
    }
    if (!child_safe) minimal.insert(lattice.Encode(node));
  }
  return minimal;
}

// A monotone predicate on a {4,3,2} lattice: safe above a fixed frontier.
bool FrontierSafe(const LatticeNode& node) {
  return node[0] + 2 * node[1] + node[2] >= 4;
}

TEST(LatticeSearchTest, MatchesExhaustiveOracle) {
  GeneralizationLattice lattice({4, 3, 2});
  const auto result = FindMinimalSafeNodes(lattice, FrontierSafe);
  std::set<uint64_t> found;
  for (const auto& node : result.minimal_safe_nodes) {
    found.insert(lattice.Encode(node));
  }
  EXPECT_EQ(found, OracleMinimalSafe(lattice, FrontierSafe));
}

TEST(LatticeSearchTest, PruningDoesNotChangeTheAnswer) {
  GeneralizationLattice lattice({4, 3, 2});
  LatticeSearchOptions exhaustive;
  exhaustive.use_pruning = false;
  const auto pruned = FindMinimalSafeNodes(lattice, FrontierSafe);
  const auto full = FindMinimalSafeNodes(lattice, FrontierSafe, exhaustive);
  std::set<uint64_t> a, b;
  for (const auto& node : pruned.minimal_safe_nodes) a.insert(lattice.Encode(node));
  for (const auto& node : full.minimal_safe_nodes) b.insert(lattice.Encode(node));
  EXPECT_EQ(a, b);
  // Pruning must save evaluations on this lattice (many nodes above the
  // frontier).
  EXPECT_LT(pruned.stats.evaluations, full.stats.evaluations);
  EXPECT_GT(pruned.stats.implied_safe, 0u);
}

TEST(LatticeSearchTest, NothingSafeAndEverythingSafe) {
  GeneralizationLattice lattice({3, 3});
  const auto none = FindMinimalSafeNodes(
      lattice, [](const LatticeNode&) { return false; });
  EXPECT_TRUE(none.minimal_safe_nodes.empty());

  const auto all = FindMinimalSafeNodes(
      lattice, [](const LatticeNode&) { return true; });
  ASSERT_EQ(all.minimal_safe_nodes.size(), 1u);
  EXPECT_EQ(all.minimal_safe_nodes[0], lattice.Bottom());
  // Only the bottom is ever evaluated when everything is safe.
  EXPECT_EQ(all.stats.evaluations, 1u);
}

TEST(ChainBinarySearchTest, FindsTheFrontier) {
  GeneralizationLattice lattice({6, 3, 2, 2});
  const auto chain = lattice.CanonicalChain();
  // Monotone predicate: height >= 5.
  const NodePredicate safe = [&](const LatticeNode& node) {
    return lattice.Height(node) >= 5;
  };
  LatticeSearchStats stats;
  auto index = ChainBinarySearch(chain, safe, &stats);
  ASSERT_TRUE(index.has_value());
  EXPECT_EQ(*index, 5u);
  EXPECT_TRUE(safe(chain[*index]));
  EXPECT_FALSE(safe(chain[*index - 1]));
  // Logarithmic evaluation count (chain length 9 -> about 1 + log2(9)).
  EXPECT_LE(stats.evaluations, 6u);
}

TEST(ChainBinarySearchTest, EdgeCases) {
  GeneralizationLattice lattice({3, 2});
  const auto chain = lattice.CanonicalChain();
  EXPECT_FALSE(
      ChainBinarySearch(chain, [](const LatticeNode&) { return false; })
          .has_value());
  auto always = ChainBinarySearch(
      chain, [](const LatticeNode&) { return true; });
  ASSERT_TRUE(always.has_value());
  EXPECT_EQ(*always, 0u);
}

TEST(ChainBinarySearchTest, AgreesWithLinearScanForCkSafety) {
  // On the hospital table with a Zip/Age/Sex lattice, binary search along
  // the canonical chain must find the same frontier index as a linear scan
  // (Theorem 14 guarantees monotonicity along chains).
  const Table table = MakeHospitalTable();
  std::vector<QuasiIdentifier> qis(3);
  qis[0] = {0, ShareHierarchy(TreeHierarchy::SuppressionOnly(
                   table.schema().attribute(0)))};
  auto age = IntervalHierarchy::Create(table.schema().attribute(1), {1, 3},
                                       true);
  ASSERT_TRUE(age.ok());
  qis[1] = {1, ShareHierarchy(*std::move(age))};
  qis[2] = {2, ShareHierarchy(TreeHierarchy::SuppressionOnly(
                   table.schema().attribute(2)))};
  const GeneralizationLattice lattice =
      GeneralizationLattice::FromQuasiIdentifiers(qis);

  const NodePredicate safe = [&](const LatticeNode& node) {
    auto b = BucketizeAtNode(table, qis, node, kHospitalSensitiveColumn);
    CKSAFE_CHECK(b.ok());
    return DisclosureAnalyzer(*b).IsCkSafe(0.75, 1);
  };
  const auto chain = lattice.CanonicalChain();
  auto index = ChainBinarySearch(chain, safe);
  size_t linear = chain.size();
  for (size_t i = 0; i < chain.size(); ++i) {
    if (safe(chain[i])) {
      linear = i;
      break;
    }
  }
  if (linear == chain.size()) {
    EXPECT_FALSE(index.has_value());
  } else {
    ASSERT_TRUE(index.has_value());
    EXPECT_EQ(*index, linear);
  }
}

TEST(UtilityTest, MetricsOnHospital) {
  const Table table = MakeHospitalTable();
  std::vector<QuasiIdentifier> qis(1);
  qis[0] = {2, ShareHierarchy(TreeHierarchy::SuppressionOnly(
                   table.schema().attribute(2)))};  // Sex
  auto by_sex = BucketizeAtNode(table, qis, {0}, kHospitalSensitiveColumn);
  ASSERT_TRUE(by_sex.ok());
  const UtilityMetrics sex_metrics =
      ComputeUtility(table, qis, {0}, *by_sex);
  EXPECT_DOUBLE_EQ(sex_metrics.discernibility, 25.0 + 25.0);
  EXPECT_DOUBLE_EQ(sex_metrics.avg_class_size, 5.0);
  EXPECT_DOUBLE_EQ(sex_metrics.height, 0.0);
  EXPECT_DOUBLE_EQ(sex_metrics.loss, 0.0);  // nothing generalized

  auto suppressed = BucketizeAtNode(table, qis, {1}, kHospitalSensitiveColumn);
  ASSERT_TRUE(suppressed.ok());
  const UtilityMetrics sup_metrics =
      ComputeUtility(table, qis, {1}, *suppressed);
  EXPECT_DOUBLE_EQ(sup_metrics.discernibility, 100.0);
  EXPECT_DOUBLE_EQ(sup_metrics.height, 1.0);
  EXPECT_DOUBLE_EQ(sup_metrics.loss, 1.0);  // whole domain per record

  EXPECT_LT(UtilityScore(sex_metrics, UtilityObjective::kDiscernibility),
            UtilityScore(sup_metrics, UtilityObjective::kDiscernibility));
  EXPECT_EQ(UtilityObjectiveName(UtilityObjective::kLoss), "loss");
}

TEST(UtilityTest, LevelPassRecordScoresAsTheBucketizationOnEveryAdultNode) {
  // PublishPolicies ranks frontier nodes by what its level pass recorded
  // of each profiled node: the bucket count, and the Σ|b|² the profile's
  // input fill summed. That record must score every node exactly as
  // ComputeUtility over BucketizeAtNode does, under every objective but
  // loss; loss reads each row's bucket, which the record does not hold,
  // so under it the pass bucketizes the frontier instead.
  const uint64_t seed = testing::TestSeed(20261017);
  SCOPED_TRACE(testing::SeedTrace(seed));
  auto qis = AdultQuasiIdentifiers();
  ASSERT_TRUE(qis.ok()) << qis.status();
  const Table table = GenerateSyntheticAdult(300, seed);
  const GeneralizationLattice lattice =
      GeneralizationLattice::FromQuasiIdentifiers(*qis);
  DisclosureCache cache;
  Minimize2Workspace workspace;
  for (const LatticeNode& node : lattice.AllNodes()) {
    auto bucketization =
        BucketizeAtNode(table, *qis, node, kAdultOccupationColumn);
    ASSERT_TRUE(bucketization.ok()) << bucketization.status();
    const UtilityMetrics expected =
        ComputeUtility(table, *qis, node, *bucketization);
    auto histograms =
        NodeHistograms::AtNode(table, *qis, node, kAdultOccupationColumn);
    ASSERT_TRUE(histograms.ok()) << histograms.status();
    double sum_of_squares = -1.0;
    ImplicationProfile(*histograms, 2, &cache, &workspace, &sum_of_squares);
    const UtilityMetrics record = UtilityFromBucketSizes(
        node, table.num_rows(), histograms->num_buckets(), sum_of_squares);
    for (const UtilityObjective objective :
         {UtilityObjective::kDiscernibility, UtilityObjective::kAvgClassSize,
          UtilityObjective::kHeight, UtilityObjective::kLoss}) {
      if (objective == UtilityObjective::kLoss) {
        EXPECT_EQ(record.loss, 0.0);
        continue;
      }
      EXPECT_EQ(UtilityScore(record, objective),
                UtilityScore(expected, objective))
          << UtilityObjectiveName(objective) << " at node "
          << lattice.Encode(node);
    }
  }
}

TEST(PublisherTest, EndToEndOnHospital) {
  const Table table = MakeHospitalTable();
  std::vector<QuasiIdentifier> qis(3);
  qis[0] = {0, ShareHierarchy(TreeHierarchy::SuppressionOnly(
                   table.schema().attribute(0)))};
  auto age = IntervalHierarchy::Create(table.schema().attribute(1), {1, 3},
                                       true);
  ASSERT_TRUE(age.ok());
  qis[1] = {1, ShareHierarchy(*std::move(age))};
  qis[2] = {2, ShareHierarchy(TreeHierarchy::SuppressionOnly(
                   table.schema().attribute(2)))};

  PublisherOptions options;
  options.c = 0.75;
  options.k = 1;
  Publisher publisher(options);
  auto release = publisher.Publish(table, qis, kHospitalSensitiveColumn);
  ASSERT_TRUE(release.ok()) << release.status();

  // The chosen node is actually safe and its published assignment is a
  // valid within-bucket permutation.
  DisclosureAnalyzer analyzer(release->bucketization);
  EXPECT_LT(analyzer.MaxDisclosureImplications(1).disclosure, 0.75);
  EXPECT_TRUE(release->bucketization.IsConsistentAssignment(
      release->published_sensitive));
  EXPECT_NEAR(release->worst_case.disclosure,
              analyzer.MaxDisclosureImplications(1).disclosure, 1e-12);

  // Every reported minimal safe node is safe and has no safe child.
  const GeneralizationLattice lattice =
      GeneralizationLattice::FromQuasiIdentifiers(qis);
  const NodePredicate safe = [&](const LatticeNode& node) {
    auto b = BucketizeAtNode(table, qis, node, kHospitalSensitiveColumn);
    CKSAFE_CHECK(b.ok());
    return DisclosureAnalyzer(*b).IsCkSafe(options.c, options.k);
  };
  for (const LatticeNode& node : release->minimal_safe_nodes) {
    EXPECT_TRUE(safe(node));
    for (const LatticeNode& child : lattice.Children(node)) {
      EXPECT_FALSE(safe(child));
    }
  }

  const std::string summary =
      Publisher::Summary(*release, table, kHospitalSensitiveColumn);
  EXPECT_NE(summary.find("worst-case disclosure"), std::string::npos);
}

TEST(PublisherTest, ImpossibleThresholdIsNotFound) {
  const Table table = MakeHospitalTable();
  std::vector<QuasiIdentifier> qis(1);
  qis[0] = {2, ShareHierarchy(TreeHierarchy::SuppressionOnly(
                   table.schema().attribute(2)))};
  PublisherOptions options;
  options.c = 0.05;  // below even the all-in-one bucket's disclosure
  options.k = 2;
  Publisher publisher(options);
  auto release = publisher.Publish(table, qis, kHospitalSensitiveColumn);
  EXPECT_FALSE(release.ok());
  EXPECT_EQ(release.status().code(), StatusCode::kNotFound);
}

TEST(PublisherTest, SeedChangesPermutationNotBuckets) {
  const Table table = MakeHospitalTable();
  std::vector<QuasiIdentifier> qis(1);
  qis[0] = {2, ShareHierarchy(TreeHierarchy::SuppressionOnly(
                   table.schema().attribute(2)))};
  PublisherOptions a;
  a.c = 0.9;
  a.k = 1;
  a.seed = 1;
  PublisherOptions b = a;
  b.seed = 2;
  auto ra = Publisher(a).Publish(table, qis, kHospitalSensitiveColumn);
  auto rb = Publisher(b).Publish(table, qis, kHospitalSensitiveColumn);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra->node, rb->node);
  EXPECT_TRUE(ra->bucketization.IsConsistentAssignment(rb->published_sensitive));
}

// Forwards to a ladder and counts GroupOf calls.
class CountingHierarchy : public AttributeHierarchy {
 public:
  explicit CountingHierarchy(std::shared_ptr<const AttributeHierarchy> base)
      : base_(std::move(base)) {}

  const AttributeDef& attribute() const override {
    return base_->attribute();
  }
  size_t num_levels() const override { return base_->num_levels(); }
  int64_t GroupOf(int32_t code, size_t level) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return base_->GroupOf(code, level);
  }
  size_t NumGroups(size_t level) const override {
    return base_->NumGroups(level);
  }
  size_t GroupSize(int64_t group, size_t level) const override {
    return base_->GroupSize(group, level);
  }
  std::string GroupLabel(int64_t group, size_t level) const override {
    return base_->GroupLabel(group, level);
  }

  size_t calls() const { return calls_.load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<const AttributeHierarchy> base_;
  mutable std::atomic<size_t> calls_{0};
};

// A table whose first column takes a few values spread over [lo, hi] (a
// timestamp read from a CSV), with Sex and a four-valued Dx.
Table MakeSpreadTable(int32_t lo, int32_t hi,
                      const std::vector<int32_t>& values, Rng* rng) {
  Table table(Schema({AttributeDef::Numeric("Stamp", lo, hi),
                      AttributeDef::Categorical("Sex", {"F", "M"}),
                      AttributeDef::Categorical("Dx", {"a", "b", "c", "d"})}));
  for (size_t row = 0; row < 200; ++row) {
    const int32_t stamp = values[rng->NextBelow(values.size())];
    const auto sex = static_cast<int32_t>(rng->NextBelow(2));
    const auto dx = static_cast<int32_t>(rng->NextBelow(4));
    CKSAFE_CHECK(table.AppendRow({stamp, sex, dx}).ok());
  }
  return table;
}

TEST(PublisherTest, WideValueRangeCostsRowsNotValues) {
  // Six stamps spread over two billion values: scoring a node must read
  // group sizes off the ladder, not visit the value range.
  const uint64_t seed = testing::TestSeed(20261022);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  std::vector<int32_t> stamps(6);
  for (int32_t& stamp : stamps) {
    stamp = static_cast<int32_t>(rng.NextInRange(0, 2'000'000'000));
  }
  const Table table = MakeSpreadTable(0, 2'000'000'000, stamps, &rng);
  const auto stamp = std::make_shared<CountingHierarchy>(
      MakeDefaultHierarchy(table.schema().attribute(0)));
  const std::vector<QuasiIdentifier> qis = {
      {0, stamp}, {1, MakeDefaultHierarchy(table.schema().attribute(1))}};
  PublisherOptions options;
  options.c = 0.9;
  options.k = 1;
  auto release = Publisher(options).Publish(table, qis, 2);
  ASSERT_TRUE(release.ok()) << release.status();
  EXPECT_GE(release->utility.loss, 0.0);
  EXPECT_LE(release->utility.loss, 1.0);
  // Grouping, bucketizing and scoring call GroupOf a few times per row
  // and node of the 10-node lattice; visiting the range would call it two
  // billion times.
  EXPECT_LE(stamp->calls(), 10 * 10 * table.num_rows());
}

TEST(PublisherTest, FullInt32RangeColumnPublishes) {
  // A span wider than INT32_MAX needs 64-bit interval arithmetic and
  // group ids.
  const uint64_t seed = testing::TestSeed(20261023);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  constexpr int32_t kMin = std::numeric_limits<int32_t>::min();
  constexpr int32_t kMax = std::numeric_limits<int32_t>::max();
  const Table table = MakeSpreadTable(
      kMin, kMax, {kMin, -2'000'000'000, -7, 5, 2'000'000'000, kMax}, &rng);
  const std::vector<QuasiIdentifier> qis = {
      {0, MakeDefaultHierarchy(table.schema().attribute(0))},
      {1, MakeDefaultHierarchy(table.schema().attribute(1))}};
  PublisherOptions options;
  options.c = 0.9;
  options.k = 1;
  auto release = Publisher(options).Publish(table, qis, 2);
  ASSERT_TRUE(release.ok()) << release.status();
  EXPECT_TRUE(release->bucketization.IsConsistentAssignment(
      release->published_sensitive));
  EXPECT_GE(release->utility.loss, 0.0);
  EXPECT_LE(release->utility.loss, 1.0);
  auto expected = BucketizeAtNode(table, qis, release->node, 2);
  ASSERT_TRUE(expected.ok()) << expected.status();
  EXPECT_EQ(expected->ToString(), release->bucketization.ToString());
}

}  // namespace
}  // namespace cksafe
