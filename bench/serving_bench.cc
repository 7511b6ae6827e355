// E10: the serving layer under concurrent readers and streaming writes.
//
// Measures queries/sec for two serving strategies over the same snapshot
// store, at 1/2/4/8 reader threads, while a writer thread swaps release
// snapshots every ~2 ms (the streaming re-publish cadence):
//
//   BM_ServeNaive    "per-query locking" baseline: a global mutex
//                    serializes each query, which resolves the current
//                    snapshot and runs its ReferenceAnswer (a fresh
//                    DisclosureAnalyzer's point query; it does get the
//                    shared MINIMIZE1 table cache — the baseline is naive
//                    about locking and sweep sharing, not about table reuse).
//   BM_ServeBatched  the QueryRouter: bounded admission queue, worker
//                    drains batches, one profile sweep per
//                    (tenant, snapshot) answers every coalesced query.
//
// Acceptance (BENCH_PR5.json): batched >= 2x naive queries/sec at 8
// reader threads. Correctness is asserted in-bench: a verification pass
// runs the full query mix through the router WHILE the writer swaps and
// CHECKs every answer equal, on every field, to its ReferenceAnswer over
// the snapshot the answer names (VerifyServedAnswers).

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cksafe/adult/adult.h"
#include "cksafe/core/disclosure.h"
#include "cksafe/search/publisher.h"
#include "cksafe/serve/query_router.h"
#include "cksafe/serve/reference_answer.h"
#include "cksafe/serve/release_snapshot.h"
#include "cksafe/serve/snapshot_store.h"
#include "cksafe/util/check.h"

namespace cksafe {
namespace {

constexpr size_t kRows = 2500;
// The query mix spans the paper's Figure-5 budget range: the serving layer
// must answer any k a curve consumer asks for, not just the policy's k.
constexpr size_t kMaxK = 13;
constexpr char kTenant[] = "tenant";

/// Shared fixture: a snapshot store fed by a background writer that swaps
/// between releases of a growing synthetic Adult stream, a registry of
/// everything ever published (for bit-identity verification), and both
/// serving front ends.
struct ServingFixture {
  ServingDirectory directory;
  SnapshotStore* store = nullptr;
  // All snapshots the writer can publish, pre-built so the writer's swap
  // cost (not its release-search cost) is what readers contend with.
  std::vector<std::shared_ptr<const ReleaseSnapshot>> variants;
  std::mutex registry_mu;
  SnapshotRegistry registry;
  std::atomic<uint64_t> next_sequence{1};
  std::atomic<bool> stop_writer{false};
  std::thread writer;
  std::unique_ptr<QueryRouter> router;

  // Naive baseline state: one big lock, a shared table cache.
  std::mutex naive_mu;
  DisclosureCache naive_cache;

  ServingFixture() {
    // Two releases of a growing stream.
    auto qis = AdultQuasiIdentifiers();
    CKSAFE_CHECK(qis.ok()) << qis.status();
    PublisherOptions options;
    options.c = 0.75;
    options.k = 3;
    Publisher publisher(options);
    for (const size_t rows : {kRows, kRows + kRows / 4}) {
      const Table table = GenerateSyntheticAdult(rows, /*seed=*/20070419);
      auto release = publisher.Publish(table, *qis, kAdultOccupationColumn);
      CKSAFE_CHECK(release.ok()) << release.status();
      variants.push_back(MakeReleaseSnapshot(1, rows, *release));
    }
    store = directory.GetOrAddTenant(kTenant);
    PublishNextVariant();
    router = std::make_unique<QueryRouter>(&directory);
    writer = std::thread([this] {
      while (!stop_writer.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        PublishNextVariant();
      }
    });
  }

  ~ServingFixture() {
    stop_writer = true;
    writer.join();
    router->Stop();
  }

  void PublishNextVariant() {
    const uint64_t sequence = next_sequence.fetch_add(1);
    const auto& variant = variants[sequence % variants.size()];
    auto snapshot = std::make_shared<ReleaseSnapshot>(*variant);
    snapshot->sequence = sequence;
    {
      std::lock_guard<std::mutex> lock(registry_mu);
      registry[{kTenant, sequence}] = snapshot;
    }
    store->Publish(std::move(snapshot));
  }

  /// The deterministic query mix both strategies serve: cycles kinds and
  /// budgets. i is the caller's query counter.
  static Query MixedQuery(uint64_t i) {
    Query query;
    query.tenant = kTenant;
    query.k = 1 + i % kMaxK;
    switch (i % 4) {
      case 0:
        query.kind = QueryKind::kIsCkSafe;
        query.c = 0.75;
        break;
      case 1:
        query.kind = QueryKind::kDisclosure;
        break;
      case 2:
        query.kind = QueryKind::kProfileAtK;
        break;
      default:
        query.kind = QueryKind::kPerBucket;
        query.bucket = 0;
        break;
    }
    return query;
  }

  /// Naive per-query locking: the whole query — snapshot resolve, analyzer
  /// construction, dedicated point query — runs under one global mutex.
  StatusOr<QueryAnswer> AskNaive(const Query& query) {
    std::lock_guard<std::mutex> lock(naive_mu);
    const auto snapshot = store->Current();
    const DisclosureAnalyzer analyzer(snapshot->bucketization, &naive_cache);
    return ReferenceAnswer(*snapshot, analyzer, query);
  }

  /// In-bench bit-identity gate: run the mix through the router while the
  /// writer is swapping and CHECK every answer against a fresh analyzer
  /// over the snapshot it names.
  void VerifyBatchedAnswers() {
    std::vector<ServedAnswer> served;
    for (uint64_t i = 0; i < 64; ++i) {
      const Query query = MixedQuery(i);
      const auto answer = router->Ask(query);
      CKSAFE_CHECK(answer.ok()) << answer.status();
      served.push_back({query, *answer});
    }
    std::lock_guard<std::mutex> lock(registry_mu);
    const Status verified = VerifyServedAnswers(served, registry);
    CKSAFE_CHECK(verified.ok()) << verified;
  }
};

ServingFixture* Fixture() {
  static ServingFixture* fixture = [] {
    auto* f = new ServingFixture();
    f->VerifyBatchedAnswers();
    return f;
  }();
  return fixture;
}

void BM_ServeNaive(benchmark::State& state) {
  ServingFixture* fixture = Fixture();
  uint64_t i = static_cast<uint64_t>(state.thread_index()) << 32;
  for (auto _ : state) {
    const auto answer = fixture->AskNaive(ServingFixture::MixedQuery(i++));
    CKSAFE_CHECK(answer.ok()) << answer.status();
    benchmark::DoNotOptimize(answer->disclosure);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_ServeBatched(benchmark::State& state) {
  ServingFixture* fixture = Fixture();
  uint64_t i = static_cast<uint64_t>(state.thread_index()) << 32;
  for (auto _ : state) {
    const auto answer = fixture->router->Ask(ServingFixture::MixedQuery(i++));
    CKSAFE_CHECK(answer.ok()) << answer.status();
    benchmark::DoNotOptimize(answer->disclosure);
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    const RouterStats stats = fixture->router->stats();
    state.counters["coalescing"] = stats.CoalescingFactor();
    state.counters["profile_sweeps"] =
        static_cast<double>(stats.profile_sweeps);
  }
}

BENCHMARK(BM_ServeNaive)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();
BENCHMARK(BM_ServeBatched)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

}  // namespace
}  // namespace cksafe

BENCHMARK_MAIN();
