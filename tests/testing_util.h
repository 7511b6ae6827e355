// Shared fixtures for the cksafe test suite: the paper's running example
// (Figures 1-3), random instance generators for property tests, and the
// reference publisher every publish differential compares against.

#ifndef CKSAFE_TESTS_TESTING_UTIL_H_
#define CKSAFE_TESTS_TESTING_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cksafe/anon/bucketization.h"
#include "cksafe/core/disclosure.h"
#include "cksafe/data/table.h"
#include "cksafe/search/lattice_search.h"
#include "cksafe/search/publisher.h"
#include "cksafe/util/random.h"

namespace cksafe {
namespace testing {

/// Seed for a randomized test: `fallback` unless the CKSAFE_TEST_SEED
/// environment variable overrides it. Pair with SeedTrace so a failure
/// always logs the seed that reproduces it:
///
///   const uint64_t seed = TestSeed(20260726);
///   SCOPED_TRACE(SeedTrace(seed));
///   Rng rng(seed);
inline uint64_t TestSeed(uint64_t fallback) {
  const char* override_value = std::getenv("CKSAFE_TEST_SEED");
  if (override_value == nullptr || *override_value == '\0') return fallback;
  return std::strtoull(override_value, nullptr, 0);
}

/// Failure annotation naming the seed and how to replay it.
inline std::string SeedTrace(uint64_t seed) {
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer),
                "seed=%llu (rerun with CKSAFE_TEST_SEED=%llu)",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(seed));
  return buffer;
}

/// Iteration count for a randomized test: `base`, multiplied by the
/// CKSAFE_TEST_ITERS environment variable when set (the nightly long-run
/// profile exports CKSAFE_TEST_ITERS=10).
inline size_t TestIters(size_t base) {
  const char* multiplier = std::getenv("CKSAFE_TEST_ITERS");
  if (multiplier == nullptr || *multiplier == '\0') return base;
  const unsigned long long factor = std::strtoull(multiplier, nullptr, 0);
  return factor > 0 ? base * static_cast<size_t>(factor) : base;
}

/// Wraps a ladder with shuffled group ids per level: the same partition of
/// the domain under different (still dense) group numbering, so a coarser
/// level's id order is unrelated to a finer one's.
class RelabeledHierarchy : public AttributeHierarchy {
 public:
  RelabeledHierarchy(std::shared_ptr<const AttributeHierarchy> base, Rng* rng)
      : base_(std::move(base)) {
    for (size_t level = 0; level < base_->num_levels(); ++level) {
      std::vector<int64_t> perm(base_->NumGroups(level));
      for (size_t g = 0; g < perm.size(); ++g) {
        perm[g] = static_cast<int64_t>(g);
      }
      rng->Shuffle(&perm);
      std::vector<int64_t> inverse(perm.size());
      for (size_t g = 0; g < perm.size(); ++g) {
        inverse[static_cast<size_t>(perm[g])] = static_cast<int64_t>(g);
      }
      perms_.push_back(std::move(perm));
      inverses_.push_back(std::move(inverse));
    }
  }

  const AttributeDef& attribute() const override {
    return base_->attribute();
  }
  size_t num_levels() const override { return base_->num_levels(); }
  int64_t GroupOf(int32_t code, size_t level) const override {
    return perms_[level][static_cast<size_t>(base_->GroupOf(code, level))];
  }
  size_t NumGroups(size_t level) const override {
    return base_->NumGroups(level);
  }
  size_t GroupSize(int64_t group, size_t level) const override {
    return base_->GroupSize(inverses_[level][static_cast<size_t>(group)],
                            level);
  }
  std::string GroupLabel(int64_t group, size_t level) const override {
    return "relabeled_" + std::to_string(level) + "_" + std::to_string(group);
  }

 private:
  std::shared_ptr<const AttributeHierarchy> base_;
  std::vector<std::vector<int64_t>> perms_;
  std::vector<std::vector<int64_t>> inverses_;
};

/// Disease codes of the hospital fixture, in schema order.
enum HospitalDisease : int32_t {
  kFlu = 0,
  kLungCancer = 1,
  kMumps = 2,
  kBreastCancer = 3,
  kOvarianCancer = 4,
  kHeartDisease = 5,
};

inline constexpr size_t kHospitalSensitiveColumn = 3;  // Disease

/// The paper's Figure 1 table: 10 named patients, schema
/// (Zip, Age, Sex, Disease).
inline Table MakeHospitalTable() {
  Schema schema({
      AttributeDef::Categorical("Zip", {"14850", "14853"}),
      AttributeDef::Numeric("Age", 21, 29),
      AttributeDef::Categorical("Sex", {"M", "F"}),
      AttributeDef::Categorical("Disease",
                                {"flu", "lung cancer", "mumps", "breast cancer",
                                 "ovarian cancer", "heart disease"}),
  });
  Table table(std::move(schema));
  struct Row {
    const char* name;
    const char* zip;
    int32_t age;
    const char* sex;
    int32_t disease;
  };
  const Row rows[] = {
      {"Bob", "14850", 23, "M", kFlu},
      {"Charlie", "14850", 24, "M", kFlu},
      {"Dave", "14850", 25, "M", kLungCancer},
      {"Ed", "14850", 27, "M", kLungCancer},
      {"Frank", "14853", 29, "M", kMumps},
      {"Gloria", "14850", 21, "F", kFlu},
      {"Hannah", "14850", 22, "F", kFlu},
      {"Irma", "14853", 24, "F", kBreastCancer},
      {"Jessica", "14853", 26, "F", kOvarianCancer},
      {"Karen", "14853", 28, "F", kHeartDisease},
  };
  for (const Row& r : rows) {
    const auto zip = table.schema().attribute(0).CodeOf(r.zip);
    const auto sex = table.schema().attribute(2).CodeOf(r.sex);
    CKSAFE_CHECK(zip.ok() && sex.ok());
    CKSAFE_CHECK(table.AppendRow({*zip, r.age, *sex, r.disease}).ok());
  }
  for (size_t i = 0; i < std::size(rows); ++i) {
    table.SetRowLabel(static_cast<PersonId>(i), rows[i].name);
  }
  return table;
}

/// The Figure 2/3 bucketization of the hospital table: one bucket per Sex
/// (males rows 0-4, females rows 5-9).
inline Bucketization MakeHospitalBucketization(const Table& table) {
  auto b = BucketizeExplicit(table, {{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}},
                             kHospitalSensitiveColumn);
  CKSAFE_CHECK(b.ok()) << b.status().ToString();
  return *std::move(b);
}

/// A single-column table whose sensitive values realize the given
/// histograms; bucket i holds consecutive rows. Used to build arbitrary
/// bucketizations for property tests.
struct SyntheticBuckets {
  Table table;
  Bucketization bucketization;
};

inline SyntheticBuckets MakeBuckets(
    const std::vector<std::vector<uint32_t>>& histograms, size_t domain_size) {
  std::vector<std::string> labels;
  for (size_t s = 0; s < domain_size; ++s) {
    labels.push_back("v" + std::to_string(s));
  }
  Table table{Schema({AttributeDef::Categorical("S", labels)})};
  std::vector<std::vector<PersonId>> groups;
  PersonId next = 0;
  for (const auto& histogram : histograms) {
    CKSAFE_CHECK_EQ(histogram.size(), domain_size);
    std::vector<PersonId> members;
    for (size_t s = 0; s < domain_size; ++s) {
      for (uint32_t i = 0; i < histogram[s]; ++i) {
        CKSAFE_CHECK(table.AppendRow({static_cast<int32_t>(s)}).ok());
        members.push_back(next++);
      }
    }
    groups.push_back(std::move(members));
  }
  auto bucketization = BucketizeExplicit(table, groups, 0);
  CKSAFE_CHECK(bucketization.ok()) << bucketization.status().ToString();
  return SyntheticBuckets{std::move(table), *std::move(bucketization)};
}

/// Random histogram list for property tests; keeps the world count small
/// enough for the exact engine.
inline std::vector<std::vector<uint32_t>> RandomHistograms(
    Rng* rng, size_t num_buckets, size_t domain_size, uint32_t max_bucket) {
  std::vector<std::vector<uint32_t>> histograms(num_buckets);
  for (auto& histogram : histograms) {
    histogram.assign(domain_size, 0);
    const uint32_t size =
        1 + static_cast<uint32_t>(rng->NextBelow(max_bucket));
    for (uint32_t i = 0; i < size; ++i) {
      ++histogram[rng->NextBelow(domain_size)];
    }
  }
  return histograms;
}

/// The node-at-a-time publisher of Section 3.4, kept as the oracle for
/// PublishPolicies: Incognito (FindMinimalSafeNodes) with a fresh
/// BucketizeAtNode and a point IsCkSafe check per node, then every
/// minimal safe node bucketized again and scored, and the best one (the
/// first on ties) released. It shares the kernel, the bucketizer and the
/// utility metrics with the level pass, but not the sweep, the histogram
/// rollups, the profiles or the release assembly.
inline StatusOr<PublishedRelease> ReferencePublish(
    const Table& table, const std::vector<QuasiIdentifier>& qis,
    size_t sensitive_column, const PublisherOptions& options) {
  DisclosureCache cache;
  const NodePredicate is_safe = [&](const LatticeNode& node) {
    auto bucketization = BucketizeAtNode(table, qis, node, sensitive_column);
    CKSAFE_CHECK(bucketization.ok()) << bucketization.status().ToString();
    return DisclosureAnalyzer(*bucketization, &cache)
        .IsCkSafe(options.c, options.k);
  };
  LatticeSearchResult search = FindMinimalSafeNodes(
      GeneralizationLattice::FromQuasiIdentifiers(qis), is_safe);
  if (search.minimal_safe_nodes.empty()) {
    return Status::NotFound("no safe generalization");
  }
  std::optional<PublishedRelease> best;
  for (const LatticeNode& node : search.minimal_safe_nodes) {
    auto bucketization = BucketizeAtNode(table, qis, node, sensitive_column);
    CKSAFE_CHECK(bucketization.ok()) << bucketization.status().ToString();
    const UtilityMetrics utility =
        ComputeUtility(table, qis, node, *bucketization);
    if (best.has_value() &&
        UtilityScore(utility, options.objective) >=
            UtilityScore(best->utility, options.objective)) {
      continue;
    }
    best = PublishedRelease{node, *std::move(bucketization), utility, {}, {},
                            {}, {}};
  }
  best->worst_case = DisclosureAnalyzer(best->bucketization, &cache)
                         .MaxDisclosureImplications(options.k);
  Rng rng(options.seed);
  best->published_sensitive =
      best->bucketization.SamplePublishedAssignment(&rng);
  best->minimal_safe_nodes = std::move(search.minimal_safe_nodes);
  best->search_stats = search.stats;
  return *std::move(best);
}

}  // namespace testing
}  // namespace cksafe

#endif  // CKSAFE_TESTS_TESTING_UTIL_H_
