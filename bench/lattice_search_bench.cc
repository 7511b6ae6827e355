// Benchmarks for the safe-bucketization search (experiment E5 in DESIGN.md):
// Incognito-style enumeration with and without monotonicity pruning, chain
// binary search vs. linear scan (Theorem 14), and the per-node cost of the
// (c,k)-safety check next to the k-anonymity / ℓ-diversity baselines it
// replaces inside Incognito.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "cksafe/adult/adult.h"
#include "cksafe/anon/bucketization.h"
#include "cksafe/anon/diversity.h"
#include "cksafe/core/disclosure.h"
#include "cksafe/search/lattice_search.h"

namespace cksafe {
namespace {

constexpr size_t kRows = 5000;

const Table& AdultTable() {
  static const Table* table = new Table(GenerateSyntheticAdult(kRows, 99));
  return *table;
}

const std::vector<QuasiIdentifier>& AdultQis() {
  static const auto* qis = [] {
    auto q = AdultQuasiIdentifiers();
    CKSAFE_CHECK(q.ok());
    return new std::vector<QuasiIdentifier>(*std::move(q));
  }();
  return *qis;
}

NodePredicate CkSafetyPredicate(DisclosureCache* cache, double c, size_t k) {
  return [cache, c, k](const LatticeNode& node) {
    auto b = BucketizeAtNode(AdultTable(), AdultQis(), node,
                             kAdultOccupationColumn);
    CKSAFE_CHECK(b.ok());
    return DisclosureAnalyzer(*b, cache).IsCkSafe(c, k);
  };
}

void BM_IncognitoCkSafety(benchmark::State& state) {
  const bool pruning = state.range(0) == 1;
  const double c = static_cast<double>(state.range(1)) / 100.0;
  const size_t k = static_cast<size_t>(state.range(2));
  const GeneralizationLattice lattice =
      GeneralizationLattice::FromQuasiIdentifiers(AdultQis());
  LatticeSearchOptions options;
  options.use_pruning = pruning;
  for (auto _ : state) {
    DisclosureCache cache;
    auto result =
        FindMinimalSafeNodes(lattice, CkSafetyPredicate(&cache, c, k), options);
    benchmark::DoNotOptimize(result.minimal_safe_nodes.size());
    state.counters["evaluations"] =
        static_cast<double>(result.stats.evaluations);
  }
  state.SetLabel(std::string(pruning ? "pruning" : "exhaustive") +
                 (c > 0.8 ? ", loose threshold (much of the lattice safe)"
                          : ", tight threshold (few nodes safe)"));
}
BENCHMARK(BM_IncognitoCkSafety)
    ->Unit(benchmark::kMillisecond)
    ->Args({1, 60, 3})
    ->Args({0, 60, 3})
    ->Args({1, 90, 1})
    ->Args({0, 90, 1});

// The parallel batch-evaluation subsystem: same Incognito search, same
// lattice, predicate evaluations of each BFS level fanned out over a
// thread pool with one shared (sharded) DisclosureCache. Output is
// asserted identical to the sequential search every iteration; compare
// real_time across the threads argument for the speedup.
void BM_ParallelIncognitoCkSafety(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  const double c = 0.6;
  const size_t k = 3;
  const GeneralizationLattice lattice =
      GeneralizationLattice::FromQuasiIdentifiers(AdultQis());

  DisclosureCache baseline_cache;
  const LatticeSearchResult baseline = FindMinimalSafeNodes(
      lattice, CkSafetyPredicate(&baseline_cache, c, k));

  // The caller participates in ParallelFor, so a total of `threads` workers
  // means a pool of threads - 1 (kept across iterations to amortize spawn).
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads - 1);
  for (auto _ : state) {
    DisclosureCache cache;
    LatticeSearchOptions options;
    options.pool = pool.get();
    auto result =
        FindMinimalSafeNodes(lattice, CkSafetyPredicate(&cache, c, k), options);
    CKSAFE_CHECK(result.minimal_safe_nodes == baseline.minimal_safe_nodes)
        << "parallel search diverged from sequential output";
    CKSAFE_CHECK_EQ(result.stats.evaluations, baseline.stats.evaluations);
    benchmark::DoNotOptimize(result.minimal_safe_nodes.size());
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.SetLabel("pool of " + std::to_string(threads) +
                 " threads incl. caller, shared sharded cache");
}
BENCHMARK(BM_ParallelIncognitoCkSafety)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8);

void BM_IncognitoBaselines(benchmark::State& state) {
  // 0: k-anonymity, 1: entropy ℓ-diversity, 2: (c,k)-safety.
  const int which = static_cast<int>(state.range(0));
  const GeneralizationLattice lattice =
      GeneralizationLattice::FromQuasiIdentifiers(AdultQis());
  for (auto _ : state) {
    DisclosureCache cache;
    NodePredicate predicate;
    switch (which) {
      case 0:
        predicate = [](const LatticeNode& node) {
          auto b = BucketizeAtNode(AdultTable(), AdultQis(), node,
                                   kAdultOccupationColumn);
          CKSAFE_CHECK(b.ok());
          return IsKAnonymous(*b, 50);
        };
        break;
      case 1:
        predicate = [](const LatticeNode& node) {
          auto b = BucketizeAtNode(AdultTable(), AdultQis(), node,
                                   kAdultOccupationColumn);
          CKSAFE_CHECK(b.ok());
          return IsEntropyLDiverse(*b, 4.0);
        };
        break;
      default:
        predicate = CkSafetyPredicate(&cache, 0.6, 3);
    }
    auto result = FindMinimalSafeNodes(lattice, predicate);
    benchmark::DoNotOptimize(result.minimal_safe_nodes.size());
  }
  state.SetLabel(which == 0   ? "k-anonymity (k=50)"
                 : which == 1 ? "entropy l-diversity (l=4)"
                              : "(c,k)-safety (c=0.6, k=3)");
}
BENCHMARK(BM_IncognitoBaselines)
    ->Unit(benchmark::kMillisecond)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2);

void BM_ChainSearch(benchmark::State& state) {
  const bool binary = state.range(0) == 1;
  const GeneralizationLattice lattice =
      GeneralizationLattice::FromQuasiIdentifiers(AdultQis());
  const auto chain = lattice.CanonicalChain();
  for (auto _ : state) {
    DisclosureCache cache;
    const NodePredicate safe = CkSafetyPredicate(&cache, 0.6, 3);
    if (binary) {
      benchmark::DoNotOptimize(ChainBinarySearch(chain, safe));
    } else {
      size_t first = chain.size();
      for (size_t i = 0; i < chain.size(); ++i) {
        if (safe(chain[i])) {
          first = i;
          break;
        }
      }
      benchmark::DoNotOptimize(first);
    }
  }
  state.SetLabel(binary ? "binary search (Theorem 14)" : "linear scan");
}
BENCHMARK(BM_ChainSearch)->Unit(benchmark::kMillisecond)->Arg(1)->Arg(0);

void BM_PerNodeCheckCost(benchmark::State& state) {
  // Cost of one predicate evaluation at the Figure-5 node.
  const int which = static_cast<int>(state.range(0));
  auto b = BucketizeAtNode(AdultTable(), AdultQis(), AdultFigure5Node(),
                           kAdultOccupationColumn);
  CKSAFE_CHECK(b.ok());
  for (auto _ : state) {
    switch (which) {
      case 0:
        benchmark::DoNotOptimize(IsKAnonymous(*b, 50));
        break;
      case 1:
        benchmark::DoNotOptimize(IsEntropyLDiverse(*b, 4.0));
        break;
      default: {
        DisclosureAnalyzer analyzer(*b);
        benchmark::DoNotOptimize(analyzer.IsCkSafe(0.6, 3));
      }
    }
  }
  state.SetLabel(which == 0   ? "k-anonymity"
                 : which == 1 ? "entropy l-diversity"
                              : "(c,k)-safety");
}
BENCHMARK(BM_PerNodeCheckCost)->Arg(0)->Arg(1)->Arg(2);

}  // namespace
}  // namespace cksafe

BENCHMARK_MAIN();
