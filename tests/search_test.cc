// Lattice search tests: Incognito-style minimal-node enumeration against an
// exhaustive oracle, pruning equivalence, chain binary search, utility
// metrics and the end-to-end Publisher.

#include "cksafe/search/lattice_search.h"

#include <gtest/gtest.h>

#include <set>

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

}  // namespace
}  // namespace cksafe
