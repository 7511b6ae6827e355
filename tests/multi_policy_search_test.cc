// Differential oracle for the multi-policy lattice search.
//
// The contract under test: FindMinimalSafeNodesMultiPolicy's per-policy
// results are IDENTICAL — frontier nodes, their order, and every
// LatticeSearchStats counter — to independent FindMinimalSafeNodes runs
// with each policy's point predicate, for random lattices/profiles and
// for real (c,k)-safety over real tables, at 1, 2, and 8 threads. On top
// of bit-identity, the shared sweep must actually share:
// profiles_computed <= the sum of per-policy evaluations (collapsing to
// the strictest policy's count on a domination chain), and every field of
// the MultiPolicyPublisher's per-tenant releases, and of Publisher's, must
// equal the node-at-a-time reference publisher's (testing_util.h), at 1, 2
// and 8 threads under every utility objective.

#include "cksafe/search/lattice_search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "cksafe/adult/adult.h"
#include "cksafe/anon/bucketization.h"
#include "cksafe/core/disclosure.h"
#include "cksafe/search/publisher.h"
#include "cksafe/stream/multi_policy_publisher.h"
#include "cksafe/util/random.h"
#include "testing_util.h"

namespace cksafe {
namespace {

void ExpectIdenticalResults(const LatticeSearchResult& expected,
                            const LatticeSearchResult& actual,
                            const std::string& label) {
  EXPECT_EQ(expected.minimal_safe_nodes, actual.minimal_safe_nodes) << label;
  EXPECT_EQ(expected.stats.nodes_visited, actual.stats.nodes_visited) << label;
  EXPECT_EQ(expected.stats.evaluations, actual.stats.evaluations) << label;
  EXPECT_EQ(expected.stats.implied_safe, actual.stats.implied_safe) << label;
}

// A random synthetic profiler: disclosure decreases with (weighted) node
// height and increases with k — monotone on the lattice (Theorem 14) and
// nondecreasing in k, like the real thing, but cheap enough for many
// random trials.
NodeProfiler RandomProfiler(Rng* rng, size_t num_attributes, size_t max_k) {
  std::vector<double> weights(num_attributes);
  for (double& w : weights) w = 1.0 + static_cast<double>(rng->NextBelow(3));
  const double slope = 0.02 + 0.1 * rng->NextDouble();
  return [weights, slope,
          max_k](const LatticeNode& node) -> std::optional<DisclosureProfile> {
    double height = 0.0;
    for (size_t i = 0; i < node.size(); ++i) height += weights[i] * node[i];
    DisclosureProfile profile;
    for (size_t k = 0; k <= max_k; ++k) {
      const double d =
          std::min(1.0, 1.0 / (1.0 + 0.35 * height) + slope * k);
      profile.implication.push_back(d);
      profile.negation.push_back(d);
    }
    return profile;
  };
}

std::vector<CkPolicy> RandomPolicies(Rng* rng, size_t count, size_t max_k) {
  std::vector<CkPolicy> policies(count);
  for (CkPolicy& policy : policies) {
    policy.c = 0.05 + 0.95 * rng->NextDouble();
    policy.k = rng->NextBelow(max_k + 1);
  }
  return policies;
}

// The independent-run oracle: one FindMinimalSafeNodes per policy, its
// predicate reading the same profile source.
std::vector<LatticeSearchResult> IndependentRuns(
    const GeneralizationLattice& lattice, const NodeProfiler& profile_of,
    const std::vector<CkPolicy>& policies) {
  std::vector<LatticeSearchResult> results;
  for (const CkPolicy& policy : policies) {
    const NodePredicate is_safe = [&](const LatticeNode& node) {
      const std::optional<DisclosureProfile> profile = profile_of(node);
      return profile.has_value() && profile->IsCkSafe(policy.c, policy.k);
    };
    results.push_back(FindMinimalSafeNodes(lattice, is_safe,
                                           LatticeSearchOptions{}));
  }
  return results;
}

void ExpectMatchesIndependentRuns(const GeneralizationLattice& lattice,
                                  const NodeProfiler& profile_of,
                                  const std::vector<CkPolicy>& policies,
                                  const std::string& label) {
  const std::vector<LatticeSearchResult> independent =
      IndependentRuns(lattice, profile_of, policies);
  uint64_t total_evaluations = 0;
  for (const LatticeSearchResult& run : independent) {
    total_evaluations += run.stats.evaluations;
  }

  for (const size_t threads : {1u, 2u, 8u}) {
    MultiPolicySearchOptions options;
    options.num_threads = threads;
    const MultiPolicySearchResult multi = FindMinimalSafeNodesMultiPolicy(
        lattice, profile_of, policies, options);
    ASSERT_EQ(multi.per_policy.size(), policies.size());
    const std::string sub = label + " threads=" + std::to_string(threads);
    for (size_t p = 0; p < policies.size(); ++p) {
      ExpectIdenticalResults(independent[p], multi.per_policy[p],
                             sub + " policy=" + std::to_string(p));
    }
    // The whole point of the shared sweep: one profile answers every
    // policy, so shared work (the union of per-policy evaluation sets)
    // never exceeds the independent total.
    EXPECT_EQ(multi.stats.verdicts, total_evaluations) << sub;
    EXPECT_LE(multi.stats.profiles_computed, total_evaluations) << sub;
    EXPECT_EQ(multi.stats.shared_verdicts(),
              total_evaluations - multi.stats.profiles_computed)
        << sub;
  }
}

TEST(MultiPolicySearchTest, RandomLatticesMatchIndependentRuns) {
  Rng rng(20260726);
  const GeneralizationLattice lattice({4, 3, 3, 2});
  constexpr size_t kMaxK = 6;
  for (int trial = 0; trial < 8; ++trial) {
    const NodeProfiler profile_of =
        RandomProfiler(&rng, lattice.num_attributes(), kMaxK);
    const size_t count = 3 + rng.NextBelow(4);  // 3..6 policies
    const std::vector<CkPolicy> policies =
        RandomPolicies(&rng, count, kMaxK);
    ExpectMatchesIndependentRuns(lattice, profile_of, policies,
                                 "trial " + std::to_string(trial));
  }
}

TEST(MultiPolicySearchTest, RealCkSafetyMatchesIndependentRuns) {
  // The production shape: real (c,k)-safety profiles over synthetic Adult,
  // every policy answered from one shared cache.
  const Table table = GenerateSyntheticAdult(/*num_rows=*/120, /*seed=*/7);
  auto qis = AdultQuasiIdentifiers();
  ASSERT_TRUE(qis.ok()) << qis.status();
  const GeneralizationLattice lattice =
      GeneralizationLattice::FromQuasiIdentifiers(*qis);

  Rng rng(42);
  for (int trial = 0; trial < 3; ++trial) {
    const size_t count = 3 + rng.NextBelow(4);
    std::vector<CkPolicy> policies = RandomPolicies(&rng, count, 4);
    // Keep thresholds in the interesting band where frontiers are
    // non-trivial on this table.
    for (CkPolicy& policy : policies) policy.c = 0.5 + policy.c * 0.45;

    size_t max_k = 0;
    for (const CkPolicy& policy : policies) {
      max_k = std::max(max_k, policy.k);
    }
    DisclosureCache cache;
    const NodeProfiler profile_of =
        [&](const LatticeNode& node) -> std::optional<DisclosureProfile> {
      auto b = BucketizeAtNode(table, *qis, node, kAdultOccupationColumn);
      CKSAFE_CHECK(b.ok()) << b.status().ToString();
      return DisclosureAnalyzer(*b, &cache).Profile(max_k);
    };
    // The independent oracle uses the POINT path (MaxDisclosureImplications
    // via IsCkSafe), not the profile: agreement additionally proves the
    // one-sweep curve classifies exactly like per-k point queries.
    std::vector<LatticeSearchResult> independent;
    for (const CkPolicy& policy : policies) {
      DisclosureCache fresh_cache;
      const NodePredicate is_safe = [&](const LatticeNode& node) {
        auto b = BucketizeAtNode(table, *qis, node, kAdultOccupationColumn);
        CKSAFE_CHECK(b.ok()) << b.status().ToString();
        return DisclosureAnalyzer(*b, &fresh_cache)
            .IsCkSafe(policy.c, policy.k);
      };
      independent.push_back(FindMinimalSafeNodes(lattice, is_safe,
                                                 LatticeSearchOptions{}));
    }

    for (const size_t threads : {1u, 2u, 8u}) {
      MultiPolicySearchOptions options;
      options.num_threads = threads;
      const MultiPolicySearchResult multi =
          FindMinimalSafeNodesMultiPolicy(lattice, profile_of, policies,
                                          options);
      for (size_t p = 0; p < policies.size(); ++p) {
        ExpectIdenticalResults(independent[p], multi.per_policy[p],
                               "trial " + std::to_string(trial) +
                                   " threads=" + std::to_string(threads) +
                                   " policy=" + std::to_string(p));
      }
    }
  }
}

TEST(MultiPolicySearchTest, DominationChainCollapsesProfilesToStrictest) {
  // Double monotonicity across policies: when policy 0 dominates every
  // other (lowest c, highest k), any node a dominated policy still needs
  // is also needed by policy 0 (its implied-safe set is a superset of
  // policy 0's at every level). The shared profile set therefore
  // collapses to EXACTLY the strictest policy's evaluation set — three
  // dominated tenants ride along for free.
  const GeneralizationLattice lattice({4, 3, 3, 2});
  Rng rng(9);
  const std::vector<CkPolicy> policies = {
      {0.45, 4}, {0.55, 3}, {0.7, 2}, {0.85, 1}};
  for (size_t p = 1; p < policies.size(); ++p) {
    ASSERT_TRUE(policies[0].Dominates(policies[p]));
  }
  for (int trial = 0; trial < 5; ++trial) {
    const NodeProfiler profile_of =
        RandomProfiler(&rng, lattice.num_attributes(), 4);
    const MultiPolicySearchResult multi = FindMinimalSafeNodesMultiPolicy(
        lattice, profile_of, policies, MultiPolicySearchOptions{});
    EXPECT_EQ(multi.stats.profiles_computed,
              multi.per_policy[0].stats.evaluations)
        << "trial " << trial;
    EXPECT_EQ(multi.stats.shared_verdicts(),
              multi.per_policy[1].stats.evaluations +
                  multi.per_policy[2].stats.evaluations +
                  multi.per_policy[3].stats.evaluations)
        << "trial " << trial;
  }
}

// Every PublishedRelease field of a release equals the reference
// publisher's, NotFound included.
void ExpectSameRelease(const StatusOr<PublishedRelease>& expected,
                       const StatusOr<PublishedRelease>& actual,
                       const std::string& label) {
  ASSERT_EQ(expected.ok(), actual.ok()) << label;
  if (!expected.ok()) {
    EXPECT_EQ(expected.status().code(), actual.status().code()) << label;
    return;
  }
  EXPECT_EQ(expected->node, actual->node) << label;
  const Bucketization& want = expected->bucketization;
  const Bucketization& got = actual->bucketization;
  ASSERT_EQ(want.num_buckets(), got.num_buckets()) << label;
  EXPECT_EQ(want.sensitive_domain_size(), got.sensitive_domain_size()) << label;
  EXPECT_EQ(want.num_tuples(), got.num_tuples()) << label;
  for (size_t i = 0; i < want.num_buckets(); ++i) {
    EXPECT_EQ(want.bucket(i).members, got.bucket(i).members) << label;
    EXPECT_EQ(want.bucket(i).histogram, got.bucket(i).histogram) << label;
    EXPECT_EQ(want.bucket(i).qi_label, got.bucket(i).qi_label) << label;
  }
  EXPECT_EQ(expected->utility.discernibility, actual->utility.discernibility)
      << label;
  EXPECT_EQ(expected->utility.avg_class_size, actual->utility.avg_class_size)
      << label;
  EXPECT_EQ(expected->utility.height, actual->utility.height) << label;
  EXPECT_EQ(expected->utility.loss, actual->utility.loss) << label;
  EXPECT_EQ(expected->worst_case.disclosure, actual->worst_case.disclosure)
      << label;
  EXPECT_EQ(expected->worst_case.log_r_min, actual->worst_case.log_r_min)
      << label;
  EXPECT_EQ(expected->worst_case.target, actual->worst_case.target) << label;
  EXPECT_EQ(expected->worst_case.antecedents, actual->worst_case.antecedents)
      << label;
  EXPECT_EQ(expected->published_sensitive, actual->published_sensitive)
      << label;
  EXPECT_EQ(expected->minimal_safe_nodes, actual->minimal_safe_nodes) << label;
  const LatticeSearchStats& want_stats = expected->search_stats;
  const LatticeSearchStats& got_stats = actual->search_stats;
  EXPECT_EQ(want_stats.nodes_visited, got_stats.nodes_visited) << label;
  EXPECT_EQ(want_stats.evaluations, got_stats.evaluations) << label;
  EXPECT_EQ(want_stats.implied_safe, got_stats.implied_safe) << label;
}

constexpr UtilityObjective kObjectives[] = {
    UtilityObjective::kDiscernibility, UtilityObjective::kAvgClassSize,
    UtilityObjective::kHeight, UtilityObjective::kLoss};

TEST(MultiPolicyPublisherTest, TenantReleasesMatchDedicatedPublishers) {
  const Table adult = GenerateSyntheticAdult(240, 11);
  auto qis = AdultQuasiIdentifiers();
  ASSERT_TRUE(qis.ok()) << qis.status();

  struct Tenant {
    const char* name;
    double c;
    size_t k;
  };
  const Tenant tenants[] = {
      {"strict", 0.7, 3}, {"medium", 0.8, 2}, {"loose", 0.9, 1},
      {"impossible", 0.05, 4}};

  for (const UtilityObjective objective : kObjectives) {
    PublisherOptions base;
    base.objective = objective;
    std::vector<StatusOr<PublishedRelease>> expected;
    for (const Tenant& tenant : tenants) {
      PublisherOptions options = base;
      options.c = tenant.c;
      options.k = tenant.k;
      expected.push_back(testing::ReferencePublish(
          adult, *qis, kAdultOccupationColumn, options));
      // The single-policy front end runs the same level pass.
      ExpectSameRelease(
          expected.back(),
          Publisher(options).Publish(adult, *qis, kAdultOccupationColumn),
          UtilityObjectiveName(objective) + " Publisher " + tenant.name);
    }

    for (const size_t threads : {1u, 2u, 8u}) {
      MultiPolicyPublisher multi(adult, *qis, kAdultOccupationColumn, base);
      multi.mutable_search_options()->num_threads = threads;
      for (const Tenant& tenant : tenants) {
        multi.AddTenant(tenant.name, tenant.c, tenant.k);
      }
      auto releases = multi.PublishAll();
      ASSERT_TRUE(releases.ok()) << releases.status();
      ASSERT_EQ(releases->size(), std::size(tenants));
      EXPECT_GT(multi.last_search_stats().profiles_computed, 0u);
      EXPECT_GE(multi.last_search_stats().verdicts,
                multi.last_search_stats().profiles_computed);

      for (size_t i = 0; i < std::size(tenants); ++i) {
        EXPECT_EQ((*releases)[i].tenant, tenants[i].name);
        ExpectSameRelease(expected[i], (*releases)[i].release,
                          UtilityObjectiveName(objective) +
                              " threads=" + std::to_string(threads) + " " +
                              tenants[i].name);
      }
    }
  }
}

TEST(MultiPolicyPublisherTest, StreamingBatchesKeepTenantsConsistent) {
  // Growth via AddBatch: every PublishAll over the grown table must still
  // match the reference publisher over the same prefix.
  const Table adult = GenerateSyntheticAdult(200, 3);
  auto qis = AdultQuasiIdentifiers();
  ASSERT_TRUE(qis.ok()) << qis.status();

  auto row_cells = [&](size_t row) {
    std::vector<int32_t> cells(adult.num_columns());
    for (size_t c = 0; c < adult.num_columns(); ++c) {
      cells[c] = adult.at(static_cast<PersonId>(row), c);
    }
    return cells;
  };

  for (const UtilityObjective objective : kObjectives) {
    PublisherOptions base;
    base.objective = objective;
    for (const size_t threads : {1u, 2u, 8u}) {
      Table initial(adult.schema());
      for (size_t r = 0; r < 120; ++r) {
        ASSERT_TRUE(initial.AppendRow(row_cells(r)).ok());
      }
      MultiPolicyPublisher multi(std::move(initial), *qis,
                                 kAdultOccupationColumn, base);
      multi.mutable_search_options()->num_threads = threads;
      multi.AddTenant("a", 0.8, 2);
      multi.AddTenant("b", 0.9, 1);

      for (int batch = 0; batch < 2; ++batch) {
        if (batch > 0) {
          std::vector<std::vector<int32_t>> rows;
          for (size_t r = 120; r < 200; ++r) rows.push_back(row_cells(r));
          ASSERT_TRUE(multi.AddBatch(rows).ok());
        }
        auto releases = multi.PublishAll();
        ASSERT_TRUE(releases.ok()) << releases.status();
        for (const TenantRelease& tenant_release : *releases) {
          PublisherOptions options = base;
          options.c = tenant_release.policy.c;
          options.k = tenant_release.policy.k;
          auto expected = testing::ReferencePublish(
              multi.table(), *qis, kAdultOccupationColumn, options);
          ASSERT_TRUE(expected.ok()) << expected.status();
          ExpectSameRelease(expected, tenant_release.release,
                            UtilityObjectiveName(objective) +
                                " threads=" + std::to_string(threads) +
                                " batch=" + std::to_string(batch) + " " +
                                tenant_release.tenant);
        }
      }
      // The session cache persisted across tenants and batches.
      EXPECT_GT(multi.cache().hits(), 0u);
    }
  }
}

TEST(MultiPolicySearchTest, BatchProfilerIsAnswerNeutral) {
  // The NodeBatchProfiler contract: a pure-batching evaluator (element i ==
  // what the NodeProfiler returns for node i) must leave every frontier,
  // order, and counter bit-identical to the per-node path — the batch hook
  // may only amortize setup, never change answers. Also pins the plumbing:
  // the hook really is called once per level with the surviving nodes, and
  // their total matches profiles_computed.
  Rng rng(20260809);
  const GeneralizationLattice lattice({4, 3, 3, 2});
  constexpr size_t kMaxK = 5;
  for (int trial = 0; trial < 6; ++trial) {
    const NodeProfiler profile_of =
        RandomProfiler(&rng, lattice.num_attributes(), kMaxK);
    const std::vector<CkPolicy> policies =
        RandomPolicies(&rng, 3 + rng.NextBelow(3), kMaxK);
    const MultiPolicySearchResult plain = FindMinimalSafeNodesMultiPolicy(
        lattice, profile_of, policies, MultiPolicySearchOptions{});

    for (const size_t threads : {1u, 2u, 8u}) {
      uint64_t batch_calls = 0;
      uint64_t batched_nodes = 0;
      MultiPolicySearchOptions options;
      options.num_threads = threads;
      options.batch_profiler =
          [&](const std::vector<LatticeNode>& batch, ThreadPool* pool)
          -> std::vector<std::optional<DisclosureProfile>> {
        ++batch_calls;
        batched_nodes += batch.size();
        std::vector<std::optional<DisclosureProfile>> profiles(batch.size());
        ParallelFor(pool, batch.size(),
                    [&](size_t i) { profiles[i] = profile_of(batch[i]); });
        return profiles;
      };
      const MultiPolicySearchResult batched = FindMinimalSafeNodesMultiPolicy(
          lattice, profile_of, policies, options);
      const std::string label = "trial " + std::to_string(trial) +
                                " threads=" + std::to_string(threads);
      for (size_t p = 0; p < policies.size(); ++p) {
        ExpectIdenticalResults(plain.per_policy[p], batched.per_policy[p],
                               label + " policy=" + std::to_string(p));
      }
      EXPECT_EQ(batched.stats.profiles_computed,
                plain.stats.profiles_computed)
          << label;
      EXPECT_EQ(batched.stats.verdicts, plain.stats.verdicts) << label;
      EXPECT_EQ(batched_nodes, batched.stats.profiles_computed) << label;
      // One call per level that had survivors; never more than the height
      // range, and at least one (the bottom level always needs verdicts).
      EXPECT_GE(batch_calls, 1u) << label;
      EXPECT_LE(batch_calls, lattice.MaxHeight() + 1) << label;
    }
  }
}

TEST(MultiPolicyPublisherTest, SweepReusesSharedCacheTables) {
  // PublishAll profiles every node straight against the session's shared
  // DisclosureCache: every bucket of a profiled node without a
  // single-valued bucket requests a MINIMIZE1 table (prepare_calls, the
  // cache's hits + misses during the sweep), but a table is built only
  // when the cache does not hold its histogram yet (shared_lookups, the
  // misses). On real data histograms recur heavily across nodes and
  // levels, so most requests must be served from the cache — while the
  // releases stay exactly what the reference publisher produces.
  const Table adult = GenerateSyntheticAdult(180, 5);
  auto qis = AdultQuasiIdentifiers();
  ASSERT_TRUE(qis.ok()) << qis.status();
  PublisherOptions base;

  MultiPolicyPublisher multi(adult, *qis, kAdultOccupationColumn, base);
  multi.AddTenant("strict", 0.75, 3);
  multi.AddTenant("loose", 0.9, 1);
  auto releases = multi.PublishAll();
  ASSERT_TRUE(releases.ok()) << releases.status();

  const auto traffic = multi.last_table_traffic();
  // The sweep starts from an empty cache, so it builds some tables, and
  // fewer than it requests.
  EXPECT_GT(traffic.shared_lookups, 0u);
  EXPECT_LT(traffic.shared_lookups, traffic.prepare_calls)
      << "the shared cache served no request";

  for (const TenantRelease& tenant_release : *releases) {
    PublisherOptions options = base;
    options.c = tenant_release.policy.c;
    options.k = tenant_release.policy.k;
    auto expected = testing::ReferencePublish(adult, *qis,
                                              kAdultOccupationColumn, options);
    ASSERT_TRUE(expected.ok()) << expected.status();
    ExpectSameRelease(expected, tenant_release.release, tenant_release.tenant);
  }
}

TEST(MultiPolicyPublisherTest, FailedAddBatchLeavesTheTableUnchanged) {
  // AddBatch validates every row before appending any: a batch with one
  // bad row must not grow the table, so resending the fixed batch cannot
  // publish duplicates.
  const Table adult = GenerateSyntheticAdult(303, 13);
  auto qis = AdultQuasiIdentifiers();
  ASSERT_TRUE(qis.ok()) << qis.status();
  Table initial(adult.schema());
  std::vector<std::vector<int32_t>> batch;
  for (size_t r = 0; r < adult.num_rows(); ++r) {
    std::vector<int32_t> cells(adult.num_columns());
    for (size_t c = 0; c < adult.num_columns(); ++c) {
      cells[c] = adult.at(static_cast<PersonId>(r), c);
    }
    if (r < 300) {
      ASSERT_TRUE(initial.AppendRow(cells).ok());
    } else {
      batch.push_back(std::move(cells));
    }
  }
  batch.back()[kAdultOccupationColumn] =
      static_cast<int32_t>(kAdultOccupationValues);

  MultiPolicyPublisher multi(std::move(initial), *qis, kAdultOccupationColumn,
                             PublisherOptions());
  multi.AddTenant("a", 0.8, 2);
  multi.AddTenant("b", 0.9, 1);
  auto before = multi.PublishAll();
  ASSERT_TRUE(before.ok()) << before.status();

  EXPECT_EQ(multi.AddBatch(batch).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(multi.table().num_rows(), 300u);
  auto after = multi.PublishAll();
  ASSERT_TRUE(after.ok()) << after.status();
  for (size_t t = 0; t < before->size(); ++t) {
    ExpectSameRelease((*before)[t].release, (*after)[t].release,
                      (*before)[t].tenant);
  }
}

TEST(MultiPolicyPublisherTest, TableLevelErrorsReachBothFrontEnds) {
  // An empty table and an atom budget beyond the analysis cap fail the
  // whole call, through Publisher and MultiPolicyPublisher alike; so does
  // a PublishAll with no tenant to publish for.
  auto qis = AdultQuasiIdentifiers();
  ASSERT_TRUE(qis.ok()) << qis.status();
  const Table adult = GenerateSyntheticAdult(120, 17);
  const Table empty(adult.schema());
  const size_t too_many = Minimize2Forward::kMaxAnalysisBudget + 1;

  const auto publish = [&](const Table& table, size_t k) {
    PublisherOptions options;
    options.k = k;
    return Publisher(options)
        .Publish(table, *qis, kAdultOccupationColumn)
        .status()
        .code();
  };
  const auto publish_all = [&](const Table& table, size_t k) {
    MultiPolicyPublisher multi(table, *qis, kAdultOccupationColumn,
                               PublisherOptions());
    multi.AddTenant("t", 0.7, k);
    return multi.PublishAll().status().code();
  };
  EXPECT_EQ(publish(empty, 3), StatusCode::kInvalidArgument);
  EXPECT_EQ(publish_all(empty, 3), StatusCode::kInvalidArgument);
  EXPECT_EQ(publish(adult, too_many), StatusCode::kOutOfRange);
  EXPECT_EQ(publish_all(adult, too_many), StatusCode::kOutOfRange);

  MultiPolicyPublisher no_tenants(adult, *qis, kAdultOccupationColumn,
                                  PublisherOptions());
  EXPECT_EQ(no_tenants.PublishAll().status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace cksafe
