// Differential oracles for BucketizeAtNode's sort-based grouping and for
// the NodeHistograms the publish pass profiles.
//
// The reference below is the original map-based grouping: it keys every
// row by the vector of its generalized group ids in a std::map, so buckets
// come out in lexicographic key order with rows ascending inside each
// bucket. BucketizeAtNode must return exactly that bucketization — the
// same bucket order, members, histograms, qi_label and BucketOf — on every
// Adult lattice node at several table sizes, on deep foundry ladders over
// more quasi-identifiers than Adult has, and on quasi-identifiers whose
// value ranges are far wider than the table is long. On the same lattices,
// NodeHistograms grouped from the rows, and rolled up from each child's,
// must reproduce BucketizeAtNode's bucket order, histograms and first
// members at the parent, also under ladders whose group ids are shuffled
// per level; and a profile read off the histograms must equal a full
// analyzer's.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cksafe/adult/adult.h"
#include "cksafe/anon/bucketization.h"
#include "cksafe/core/disclosure.h"
#include "cksafe/foundry/hierarchy_foundry.h"
#include "cksafe/foundry/table_foundry.h"
#include "cksafe/hierarchy/hierarchy.h"
#include "cksafe/lattice/lattice.h"
#include "cksafe/util/random.h"
#include "cksafe/util/string_util.h"
#include "testing_util.h"

namespace cksafe {
namespace {

Bucketization ReferenceBucketizeAtNode(const Table& table,
                                       const std::vector<QuasiIdentifier>& qis,
                                       const LatticeNode& node,
                                       size_t sensitive_column) {
  const size_t domain =
      table.schema().attribute(sensitive_column).domain_size();
  std::map<std::vector<int64_t>, std::vector<PersonId>> groups;
  for (PersonId row = 0; row < table.num_rows(); ++row) {
    std::vector<int64_t> key(qis.size());
    for (size_t i = 0; i < qis.size(); ++i) {
      key[i] = qis[i].hierarchy->GroupOf(table.at(row, qis[i].column),
                                         static_cast<size_t>(node[i]));
    }
    groups[key].push_back(row);
  }
  Bucketization out(domain);
  for (const auto& [key, members] : groups) {
    Bucket b;
    b.members = members;
    b.histogram.assign(domain, 0);
    for (PersonId p : members) {
      ++b.histogram[static_cast<size_t>(table.at(p, sensitive_column))];
    }
    std::vector<std::string> labels;
    for (size_t i = 0; i < qis.size(); ++i) {
      labels.push_back(qis[i].hierarchy->GroupLabel(
          key[i], static_cast<size_t>(node[i])));
    }
    b.qi_label = Join(labels, ", ");
    CKSAFE_CHECK(out.AddBucket(std::move(b)).ok());
  }
  return out;
}

void ExpectSameBucketization(const Bucketization& expected,
                             const Bucketization& actual, size_t rows,
                             const std::string& label) {
  ASSERT_EQ(expected.num_buckets(), actual.num_buckets()) << label;
  EXPECT_EQ(expected.num_tuples(), actual.num_tuples()) << label;
  EXPECT_EQ(expected.sensitive_domain_size(), actual.sensitive_domain_size())
      << label;
  for (size_t i = 0; i < expected.num_buckets(); ++i) {
    const Bucket& want = expected.bucket(i);
    const Bucket& got = actual.bucket(i);
    ASSERT_EQ(want.members, got.members) << label << " bucket " << i;
    ASSERT_EQ(want.histogram, got.histogram) << label << " bucket " << i;
    ASSERT_EQ(want.qi_label, got.qi_label) << label << " bucket " << i;
  }
  for (PersonId row = 0; row < rows; ++row) {
    ASSERT_EQ(*expected.BucketOf(row), *actual.BucketOf(row))
        << label << " row " << row;
  }
}

// Histograms must match BucketizeAtNode's buckets: the same order, the
// same histograms, and each bucket's lowest row as its first member.
void ExpectSameHistograms(const Bucketization& expected,
                          const NodeHistograms& actual,
                          const std::string& label) {
  ASSERT_EQ(expected.num_buckets(), actual.num_buckets()) << label;
  EXPECT_EQ(expected.num_tuples(), actual.num_tuples()) << label;
  EXPECT_EQ(expected.sensitive_domain_size(), actual.sensitive_domain_size())
      << label;
  for (size_t i = 0; i < expected.num_buckets(); ++i) {
    const Bucket& want = expected.bucket(i);
    const std::span<const uint32_t> got = actual.histogram(i);
    ASSERT_EQ(want.members[0], actual.first_row(i)) << label << " bucket " << i;
    ASSERT_EQ(want.histogram, std::vector<uint32_t>(got.begin(), got.end()))
        << label << " bucket " << i;
  }
}

std::string NodeLabel(const LatticeNode& node) {
  std::string out = "node [";
  for (size_t i = 0; i < node.size(); ++i) {
    out += (i > 0 ? "," : "") + std::to_string(node[i]);
  }
  return out + "]";
}

// Checks BucketizeAtNode at `node` against the map grouping, and the
// histograms at `node`, from the rows and rolled up along every
// child -> node edge of `lattice`, against BucketizeAtNode.
void ExpectMatchesReference(const Table& table,
                            const std::vector<QuasiIdentifier>& qis,
                            const GeneralizationLattice& lattice,
                            const LatticeNode& node, size_t sensitive_column,
                            const std::string& label) {
  auto actual = BucketizeAtNode(table, qis, node, sensitive_column);
  ASSERT_TRUE(actual.ok()) << label << ": " << actual.status();
  ExpectSameBucketization(
      ReferenceBucketizeAtNode(table, qis, node, sensitive_column), *actual,
      table.num_rows(), label);
  if (::testing::Test::HasFatalFailure()) return;
  auto histograms = NodeHistograms::AtNode(table, qis, node, sensitive_column);
  ASSERT_TRUE(histograms.ok()) << label << ": " << histograms.status();
  ExpectSameHistograms(*actual, *histograms, label + " from the rows");
  if (::testing::Test::HasFatalFailure()) return;
  for (const LatticeNode& child_node : lattice.Children(node)) {
    const std::string edge = label + " rolled up from " + NodeLabel(child_node);
    auto child =
        NodeHistograms::AtNode(table, qis, child_node, sensitive_column);
    ASSERT_TRUE(child.ok()) << edge << ": " << child.status();
    auto rolled =
        NodeHistograms::RollUp(table, qis, *child, node, sensitive_column);
    ASSERT_TRUE(rolled.ok()) << edge << ": " << rolled.status();
    ExpectSameHistograms(*actual, *rolled, edge);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(BucketizeOracleTest, MatchesMapGroupingOnEveryAdultNode) {
  const uint64_t seed = testing::TestSeed(20261016);
  SCOPED_TRACE(testing::SeedTrace(seed));
  auto qis = AdultQuasiIdentifiers();
  ASSERT_TRUE(qis.ok()) << qis.status();
  const GeneralizationLattice lattice =
      GeneralizationLattice::FromQuasiIdentifiers(*qis);
  const std::vector<LatticeNode> nodes = lattice.AllNodes();
  for (const size_t rows : {0u, 1u, 7u, 500u, 4000u}) {
    const Table table = GenerateSyntheticAdult(rows, seed + rows);
    for (const LatticeNode& node : nodes) {
      ExpectMatchesReference(
          table, *qis, lattice, node, kAdultOccupationColumn,
          std::to_string(rows) + " rows, " + NodeLabel(node));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(BucketizeOracleTest, RollUpFollowsShuffledGroupIds) {
  // Every ladder's group ids are shuffled per level: sorted by a coarser
  // level's ids, the child buckets come out in an order unrelated to their
  // own, so the rollup's bucket order must come from its own sort.
  const uint64_t seed = testing::TestSeed(20261019);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  auto adult_qis = AdultQuasiIdentifiers();
  ASSERT_TRUE(adult_qis.ok()) << adult_qis.status();
  std::vector<QuasiIdentifier> qis;
  for (const QuasiIdentifier& qi : *adult_qis) {
    qis.push_back(QuasiIdentifier{
        qi.column,
        std::make_shared<testing::RelabeledHierarchy>(qi.hierarchy, &rng)});
  }
  const GeneralizationLattice lattice =
      GeneralizationLattice::FromQuasiIdentifiers(qis);
  const Table table = GenerateSyntheticAdult(500, seed);
  for (const LatticeNode& node : lattice.AllNodes()) {
    ExpectMatchesReference(table, qis, lattice, node, kAdultOccupationColumn,
                           NodeLabel(node));
    if (HasFatalFailure()) return;
  }
}

TEST(BucketizeOracleTest, MatchesMapGroupingOnDeepFoundryLadders) {
  const uint64_t seed = testing::TestSeed(20261017);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  const size_t trials = testing::TestIters(3);
  for (size_t trial = 0; trial < trials; ++trial) {
    // Six quasi-identifiers (Adult has four), numeric and categorical,
    // uniform and skewed, under fanout-2 ladders up to six levels deep.
    TableFoundryConfig config;
    config.seed = rng.NextUint64();
    config.num_rows = 200 + rng.NextBelow(400);
    config.quasi_identifiers = {
        ColumnSpec{"Code", 64, false, ValueSkew::kUniform, 1},
        ColumnSpec{"Zip", 40, true, ValueSkew::kZipf, 2},
        ColumnSpec{"Age", 100, false, ValueSkew::kClustered, 3},
        ColumnSpec{"Job", 30, true, ValueSkew::kUniform, 1},
        ColumnSpec{"Grp", 6, true, ValueSkew::kZipf, 1},
        ColumnSpec{"Day", 12, false, ValueSkew::kUniform, 1}};
    config.sensitive = ColumnSpec{"Dx", 7, true, ValueSkew::kZipf, 2};
    config.correlate_sensitive = true;
    auto table = TableFoundry::Generate(config);
    ASSERT_TRUE(table.ok()) << table.status();
    const size_t sensitive_column = config.quasi_identifiers.size();
    HierarchyFoundryConfig ladders;
    ladders.seed = rng.NextUint64();
    ladders.fanout = 2;
    ladders.max_levels = 6;
    auto qis = HierarchyFoundry::MakeQuasiIdentifiers(*table, sensitive_column,
                                                      ladders);
    ASSERT_TRUE(qis.ok()) << qis.status();
    ASSERT_EQ(qis->size(), config.quasi_identifiers.size());

    // The lattice has tens of thousands of nodes: check its bottom, its top
    // and a seeded sample of the rest, each with every edge into it.
    std::vector<LatticeNode> nodes;
    LatticeNode bottom(qis->size(), 0);
    LatticeNode top;
    for (const QuasiIdentifier& qi : *qis) {
      top.push_back(static_cast<int>(qi.hierarchy->num_levels()) - 1);
    }
    nodes.push_back(bottom);
    nodes.push_back(top);
    for (size_t sample = 0; sample < 80; ++sample) {
      LatticeNode node;
      for (const QuasiIdentifier& qi : *qis) {
        node.push_back(
            static_cast<int>(rng.NextBelow(qi.hierarchy->num_levels())));
      }
      nodes.push_back(std::move(node));
    }
    const GeneralizationLattice lattice =
        GeneralizationLattice::FromQuasiIdentifiers(*qis);
    for (const LatticeNode& node : nodes) {
      ExpectMatchesReference(*table, *qis, lattice, node, sensitive_column,
                             "trial " + std::to_string(trial) + ", " +
                                 NodeLabel(node));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(BucketizeOracleTest, MatchesMapGroupingOnWideNumericRanges) {
  const uint64_t seed = testing::TestSeed(20261018);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  // A timestamp-like, a zip-like and a full-int32 column under the default
  // ladder: their lower levels have far more groups than the table has
  // rows, and the last one holds 2^32 values, more than an int32 counts.
  // Each column draws from a few spread-out values, so buckets still
  // collect rows.
  constexpr int32_t kMin = std::numeric_limits<int32_t>::min();
  constexpr int32_t kMax = std::numeric_limits<int32_t>::max();
  const Schema schema({AttributeDef::Numeric("Stamp", 0, 10'000'000),
                       AttributeDef::Numeric("Zip", 10'000, 99'999),
                       AttributeDef::Categorical("Sex", {"F", "M"}),
                       AttributeDef::Numeric("Wide", kMin, kMax),
                       AttributeDef::Categorical("Dx", {"a", "b", "c"})});
  std::vector<QuasiIdentifier> qis;
  for (size_t column = 0; column < 4; ++column) {
    qis.push_back({column, MakeDefaultHierarchy(schema.attribute(column))});
  }
  std::vector<int32_t> stamps(12);
  std::vector<int32_t> zips(9);
  std::vector<int32_t> wides = {kMin, kMax, -1, 0};
  for (int32_t& stamp : stamps) {
    stamp = static_cast<int32_t>(rng.NextInRange(0, 10'000'000));
  }
  for (int32_t& zip : zips) {
    zip = static_cast<int32_t>(rng.NextInRange(10'000, 99'999));
  }
  for (size_t i = 0; i < 3; ++i) {
    wides.push_back(static_cast<int32_t>(rng.NextInRange(kMin, kMax)));
  }
  Table table(schema);
  for (size_t row = 0; row < 200; ++row) {
    const int32_t stamp = stamps[rng.NextBelow(stamps.size())];
    const int32_t zip = zips[rng.NextBelow(zips.size())];
    const auto sex = static_cast<int32_t>(rng.NextBelow(2));
    const int32_t wide = wides[rng.NextBelow(wides.size())];
    const auto dx = static_cast<int32_t>(rng.NextBelow(3));
    ASSERT_TRUE(table.AppendRow({stamp, zip, sex, wide, dx}).ok());
  }
  const GeneralizationLattice lattice =
      GeneralizationLattice::FromQuasiIdentifiers(qis);
  for (const LatticeNode& node : lattice.AllNodes()) {
    ExpectMatchesReference(table, qis, lattice, node, 4, NodeLabel(node));
    if (HasFatalFailure()) return;
  }
}

TEST(BucketizeOracleTest, RollUpRejectsAChildThatDoesNotCoverTheRows) {
  const uint64_t seed = testing::TestSeed(20261020);
  SCOPED_TRACE(testing::SeedTrace(seed));
  auto qis = AdultQuasiIdentifiers();
  ASSERT_TRUE(qis.ok()) << qis.status();
  const Table table = GenerateSyntheticAdult(200, seed);
  const Table shorter = GenerateSyntheticAdult(150, seed);
  const LatticeNode bottom(qis->size(), 0);
  auto child =
      NodeHistograms::AtNode(shorter, *qis, bottom, kAdultOccupationColumn);
  ASSERT_TRUE(child.ok()) << child.status();
  LatticeNode node = bottom;
  node[0] = 1;
  auto rolled = NodeHistograms::RollUp(table, *qis, *child, node,
                                       kAdultOccupationColumn);
  EXPECT_EQ(rolled.status().code(), StatusCode::kInvalidArgument);
}

TEST(BucketizeOracleTest, HistogramProfileMatchesAnalyzerOnEveryAdultNode) {
  // The publish pass profiles a node from its histograms alone: the curves
  // must equal a full analyzer's over BucketizeAtNode, bit for bit. A node
  // holding a single-valued bucket is profiled in closed form, any other
  // by the sweep; at every table size both kinds of node must occur.
  const uint64_t seed = testing::TestSeed(20261021);
  SCOPED_TRACE(testing::SeedTrace(seed));
  auto qis = AdultQuasiIdentifiers();
  ASSERT_TRUE(qis.ok()) << qis.status();
  const GeneralizationLattice lattice =
      GeneralizationLattice::FromQuasiIdentifiers(*qis);
  for (const size_t rows : {60, 600, 3000}) {
    const Table table = GenerateSyntheticAdult(rows, seed);
    DisclosureCache cache;
    size_t single_valued_nodes = 0;
    size_t other_nodes = 0;
    for (const LatticeNode& node : lattice.AllNodes()) {
      const std::string label =
          std::to_string(rows) + " rows, node " + NodeLabel(node);
      auto bucketization =
          BucketizeAtNode(table, *qis, node, kAdultOccupationColumn);
      ASSERT_TRUE(bucketization.ok()) << bucketization.status();
      auto histograms =
          NodeHistograms::AtNode(table, *qis, node, kAdultOccupationColumn);
      ASSERT_TRUE(histograms.ok()) << histograms.status();
      const DisclosureAnalyzer analyzer(*bucketization);
      const std::vector<BucketStats>& stats = analyzer.bucket_stats();
      if (std::any_of(stats.begin(), stats.end(),
                      [](const BucketStats& b) { return b.d() == 1; })) {
        ++single_valued_nodes;
      } else {
        ++other_nodes;
      }
      for (const size_t max_k : {0, 2, 5, 9}) {
        const DisclosureProfile expected = analyzer.Profile(max_k);
        const DisclosureProfile actual =
            ImplicationProfile(*histograms, max_k, &cache);
        EXPECT_EQ(expected.implication, actual.implication)
            << label << ", max_k " << max_k;
        EXPECT_EQ(expected.implication_log_r, actual.implication_log_r)
            << label << ", max_k " << max_k;
        EXPECT_TRUE(actual.negation.empty()) << label;
      }
    }
    EXPECT_GT(single_valued_nodes, 0u) << rows << " rows";
    EXPECT_GT(other_nodes, 0u) << rows << " rows";
  }
}

}  // namespace
}  // namespace cksafe
