// Parallel batch-evaluation tests: FindMinimalSafeNodes must be
// bit-identical across thread counts (nodes, order, and every stats
// counter), both for synthetic monotone predicates and for the real
// (c,k)-safety predicate sharing one DisclosureCache across workers; the
// shared cache itself is hammered concurrently against fresh tables.

#include "cksafe/search/lattice_search.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "cksafe/adult/adult.h"
#include "cksafe/anon/bucketization.h"
#include "cksafe/core/disclosure.h"
#include "cksafe/util/random.h"
#include "testing_util.h"

namespace cksafe {
namespace {

// Structural equality of two search results, including visit order.
void ExpectIdenticalResults(const LatticeSearchResult& expected,
                            const LatticeSearchResult& actual,
                            const std::string& label) {
  EXPECT_EQ(expected.minimal_safe_nodes, actual.minimal_safe_nodes) << label;
  EXPECT_EQ(expected.stats.nodes_visited, actual.stats.nodes_visited) << label;
  EXPECT_EQ(expected.stats.evaluations, actual.stats.evaluations) << label;
  EXPECT_EQ(expected.stats.implied_safe, actual.stats.implied_safe) << label;
}

// A random monotone predicate: safe iff a positively weighted sum of the
// levels crosses a threshold.
NodePredicate RandomFrontier(Rng* rng, size_t num_attributes,
                             size_t max_height) {
  std::vector<int> weights(num_attributes);
  for (int& w : weights) w = 1 + static_cast<int>(rng->NextBelow(3));
  const int threshold = static_cast<int>(rng->NextBelow(2 * max_height + 1));
  return [weights, threshold](const LatticeNode& node) {
    int sum = 0;
    for (size_t i = 0; i < node.size(); ++i) sum += weights[i] * node[i];
    return sum >= threshold;
  };
}

TEST(ParallelSearchTest, ThreadCountsAgreeOnRandomMonotonePredicates) {
  Rng rng(123);
  const GeneralizationLattice lattice({4, 3, 3, 2});
  for (int trial = 0; trial < 10; ++trial) {
    const NodePredicate is_safe =
        RandomFrontier(&rng, lattice.num_attributes(), lattice.MaxHeight());
    for (const bool use_pruning : {true, false}) {
      LatticeSearchOptions sequential_options;
      sequential_options.use_pruning = use_pruning;
      const LatticeSearchResult sequential =
          FindMinimalSafeNodes(lattice, is_safe, sequential_options);
      for (const size_t threads : {1u, 2u, 8u}) {
        LatticeSearchOptions options;
        options.use_pruning = use_pruning;
        options.num_threads = threads;
        ExpectIdenticalResults(
            sequential, FindMinimalSafeNodes(lattice, is_safe, options),
            "trial " + std::to_string(trial) + " pruning=" +
                std::to_string(use_pruning) + " threads=" +
                std::to_string(threads));
      }
    }
  }
}

TEST(ParallelSearchTest, ExternalSharedPoolMatchesOwnedPool) {
  const GeneralizationLattice lattice({4, 3, 2});
  const NodePredicate is_safe = [](const LatticeNode& node) {
    return node[0] + 2 * node[1] + node[2] >= 4;
  };
  const LatticeSearchResult sequential = FindMinimalSafeNodes(lattice, is_safe);

  ThreadPool pool(3);
  LatticeSearchOptions options;
  options.pool = &pool;
  for (int round = 0; round < 5; ++round) {
    ExpectIdenticalResults(sequential,
                           FindMinimalSafeNodes(lattice, is_safe, options),
                           "round " + std::to_string(round));
  }
}

TEST(ParallelSearchTest, CkSafetyWithSharedCacheIsDeterministic) {
  // The real workload: (c,k)-safety checks over synthetic Adult, every
  // worker thread funneling through one shared DisclosureCache.
  const Table table = GenerateSyntheticAdult(/*num_rows=*/120, /*seed=*/7);
  auto qis = AdultQuasiIdentifiers();
  ASSERT_TRUE(qis.ok()) << qis.status();
  const GeneralizationLattice lattice =
      GeneralizationLattice::FromQuasiIdentifiers(*qis);

  DisclosureCache cache;
  std::atomic<uint64_t> calls{0};
  const NodePredicate is_safe = [&](const LatticeNode& node) {
    calls.fetch_add(1, std::memory_order_relaxed);
    auto b = BucketizeAtNode(table, *qis, node, kAdultOccupationColumn);
    CKSAFE_CHECK(b.ok()) << b.status().ToString();
    return DisclosureAnalyzer(*b, &cache).IsCkSafe(/*c=*/0.75, /*k=*/2);
  };

  const LatticeSearchResult sequential = FindMinimalSafeNodes(lattice, is_safe);
  EXPECT_EQ(calls.load(), sequential.stats.evaluations);
  EXPECT_FALSE(sequential.minimal_safe_nodes.empty());

  for (const size_t threads : {2u, 8u}) {
    calls.store(0);
    LatticeSearchOptions options;
    options.num_threads = threads;
    const LatticeSearchResult parallel =
        FindMinimalSafeNodes(lattice, is_safe, options);
    ExpectIdenticalResults(sequential, parallel,
                           "threads=" + std::to_string(threads));
    EXPECT_EQ(calls.load(), sequential.stats.evaluations);
  }
}

TEST(DisclosureCacheConcurrencyTest, HammeredCacheServesCorrectTables) {
  // 8 threads interleave lookups over 6 histograms with interleaved budget
  // upgrades; every returned table must match a freshly computed one and
  // stay valid after the cache moves past it.
  const std::vector<std::vector<uint32_t>> histograms = {
      {5, 3, 2}, {4, 4, 1}, {6, 1, 1}, {3, 3, 3}, {7, 2, 1}, {2, 2, 2}};
  std::vector<BucketStats> stats;
  for (const auto& h : histograms) stats.push_back(BucketStats::FromHistogram(h));

  DisclosureCache cache;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (int iter = 0; iter < 200; ++iter) {
        const size_t which = rng.NextBelow(stats.size());
        const size_t max_k = 1 + rng.NextBelow(8);
        const auto table = cache.GetOrCompute(stats[which], max_k);
        if (table->max_k() < max_k) {
          failures.fetch_add(1);
          continue;
        }
        const Minimize1Table fresh(stats[which].counts, max_k);
        for (size_t m = 0; m <= max_k; ++m) {
          if (std::abs(table->MinProbability(m) - fresh.MinProbability(m)) >
              1e-15) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(cache.entries(), histograms.size());
  EXPECT_GT(cache.hits() + cache.misses(), 0u);
}

}  // namespace
}  // namespace cksafe
