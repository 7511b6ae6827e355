// E12: durable-store cost model — publish overhead, cold start vs
// rehydration, and buffer-pool behaviour across pool sizes.
//
//   BM_AppendPublish/G     fsync-bound durable publish of a group of G
//                          tenants (1 or 8), per snapshot
//   BM_ColdStartPublish    build a tenant fleet's serving state from
//                          scratch (publisher search + publish), the cost
//                          a restart pays WITHOUT the durable store
//   BM_RehydrateDirectory  Open() + RehydrateInto over the same fleet —
//                          the restart cost WITH the store: decode, no
//                          search
//   BM_LoadSnapshotPooled  random loads across a history for pool sizes
//                          straddling the working set; reports hit rate
//
// Correctness is asserted in-bench: every rehydrated and every
// pool-loaded snapshot is CHECKed bit-identical (SnapshotsBitIdentical)
// to the snapshot originally published. Numbers land in BENCH_PR8.json.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cksafe/adult/adult.h"
#include "cksafe/persist/durable_store.h"
#include "cksafe/search/publisher.h"
#include "cksafe/serve/release_snapshot.h"
#include "cksafe/serve/snapshot_store.h"
#include "cksafe/util/check.h"

namespace cksafe {
namespace {

constexpr size_t kRows = 1200;
constexpr size_t kTenants = 8;
constexpr size_t kSequences = 4;  // publishes per tenant

std::string BenchDir(const std::string& name) {
  const std::string dir =
      std::filesystem::temp_directory_path().string() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// The fleet's publish stream, built once: kTenants tenants, kSequences
/// releases each, all derived from the synthetic Adult workload at
/// different row counts so snapshots differ.
struct Fleet {
  std::vector<std::string> tenants;
  // [tenant][seq - 1] -> snapshot
  std::map<std::string, std::vector<std::shared_ptr<const ReleaseSnapshot>>>
      published;

  Fleet() {
    auto qis = AdultQuasiIdentifiers();
    CKSAFE_CHECK(qis.ok()) << qis.status();
    PublisherOptions options;
    options.c = 0.75;
    options.k = 3;
    Publisher publisher(options);
    for (size_t t = 0; t < kTenants; ++t) {
      const std::string tenant = "tenant" + std::to_string(t);
      tenants.push_back(tenant);
      for (size_t s = 0; s < kSequences; ++s) {
        const size_t rows = kRows + 100 * t + 50 * s;
        const Table table = GenerateSyntheticAdult(rows, /*seed=*/20070419 + t);
        auto release = publisher.Publish(table, *qis, kAdultOccupationColumn);
        CKSAFE_CHECK(release.ok()) << release.status();
        published[tenant].push_back(MakeReleaseSnapshot(s + 1, rows, *release));
      }
    }
  }
};

Fleet* GetFleet() {
  static Fleet* fleet = new Fleet();
  return fleet;
}

/// Writes the whole fleet into a fresh store at `dir`.
std::unique_ptr<DurableStore> WriteFleet(const std::string& dir,
                                         size_t pool_pages) {
  DurableStoreOptions options;
  options.dir = dir;
  options.buffer_pool_pages = pool_pages;
  auto store = DurableStore::Open(options);
  CKSAFE_CHECK(store.ok()) << store.status();
  Fleet* fleet = GetFleet();
  for (const std::string& tenant : fleet->tenants) {
    for (const auto& snapshot : fleet->published[tenant]) {
      CKSAFE_CHECK((*store)->AppendPublish(tenant, *snapshot).ok());
    }
  }
  return std::move(*store);
}

void BM_AppendPublish(benchmark::State& state) {
  // Each iteration re-publishes the first `group` fleet tenants'
  // bucketizations under fresh sequences as one group append: encode +
  // page appends + fsync(segments) + manifest records + fsync(MANIFEST).
  // Items count snapshots, so group 8 against group 1 shows the fsyncs a
  // round shares.
  Fleet* fleet = GetFleet();
  const size_t group = static_cast<size_t>(state.range(0));
  const std::string dir = BenchDir("cksafe_bench_append");
  DurableStoreOptions options;
  options.dir = dir;
  auto store = DurableStore::Open(options);
  CKSAFE_CHECK(store.ok()) << store.status();
  std::vector<ReleaseSnapshot> snapshots;
  for (size_t t = 0; t < group; ++t) {
    snapshots.push_back(*fleet->published[fleet->tenants[t]][0]);
  }
  std::vector<DurableStore::GroupEntry> entries;
  for (size_t t = 0; t < group; ++t) {
    entries.push_back({fleet->tenants[t], &snapshots[t]});
  }
  uint64_t round = 0;
  for (auto _ : state) {
    ++round;
    for (ReleaseSnapshot& snapshot : snapshots) snapshot.sequence = round;
    CKSAFE_CHECK((*store)->AppendPublishGroup(entries).ok());
  }
  state.SetItemsProcessed(state.iterations() * group);
  store->reset();
  std::filesystem::remove_all(dir);
}

void BM_ColdStartPublish(benchmark::State& state) {
  // The restart path without durability: re-run the publisher search for
  // every tenant's latest release and publish into a fresh directory.
  auto qis = AdultQuasiIdentifiers();
  CKSAFE_CHECK(qis.ok()) << qis.status();
  for (auto _ : state) {
    PublisherOptions options;
    options.c = 0.75;
    options.k = 3;
    Publisher publisher(options);
    ServingDirectory directory;
    for (size_t t = 0; t < kTenants; ++t) {
      const size_t rows = kRows + 100 * t + 50 * (kSequences - 1);
      const Table table = GenerateSyntheticAdult(rows, /*seed=*/20070419 + t);
      auto release = publisher.Publish(table, *qis, kAdultOccupationColumn);
      CKSAFE_CHECK(release.ok()) << release.status();
      directory.GetOrAddTenant("tenant" + std::to_string(t))
          ->Publish(MakeReleaseSnapshot(1, rows, *release));
    }
    benchmark::DoNotOptimize(directory.tenants().size());
  }
  state.SetItemsProcessed(state.iterations() * kTenants);
}

void BM_RehydrateDirectory(benchmark::State& state) {
  // The restart path with durability: Open (recovery scan + validation)
  // plus RehydrateInto (decode each tenant's latest snapshot). No search.
  Fleet* fleet = GetFleet();
  const std::string dir = BenchDir("cksafe_bench_rehydrate");
  WriteFleet(dir, 64).reset();
  for (auto _ : state) {
    DurableStoreOptions options;
    options.dir = dir;
    options.buffer_pool_pages = 64;
    auto store = DurableStore::Open(options);
    CKSAFE_CHECK(store.ok()) << store.status();
    ServingDirectory directory;
    CKSAFE_CHECK((*store)->RehydrateInto(&directory).ok());
    for (const std::string& tenant : fleet->tenants) {
      const auto current = directory.Find(tenant)->Current();
      CKSAFE_CHECK(SnapshotsBitIdentical(
          *current, *fleet->published[tenant].back()));
    }
  }
  state.SetItemsProcessed(state.iterations() * kTenants);
  std::filesystem::remove_all(dir);
}

void BM_LoadSnapshotPooled(benchmark::State& state) {
  // Random loads across the full fleet history through pools straddling
  // the working set; the hit-rate counter shows the tiering cliff.
  Fleet* fleet = GetFleet();
  const size_t pool_pages = static_cast<size_t>(state.range(0));
  const std::string dir =
      BenchDir("cksafe_bench_pool_" + std::to_string(pool_pages));
  auto store = WriteFleet(dir, pool_pages);
  uint64_t i = 0;
  for (auto _ : state) {
    const std::string& tenant = fleet->tenants[i % kTenants];
    const uint64_t seq = 1 + (i / kTenants) % kSequences;
    const auto loaded = store->LoadSnapshot(tenant, seq);
    CKSAFE_CHECK(loaded.ok()) << loaded.status();
    CKSAFE_CHECK(
        SnapshotsBitIdentical(**loaded, *fleet->published[tenant][seq - 1]));
    ++i;
  }
  const BufferPool::Stats stats = store->buffer_stats();
  const double total = static_cast<double>(stats.hits + stats.misses);
  state.counters["hit_rate"] =
      total == 0 ? 0.0 : static_cast<double>(stats.hits) / total;
  state.counters["evictions"] = static_cast<double>(stats.evictions);
  state.SetItemsProcessed(state.iterations());
  store.reset();
  std::filesystem::remove_all(dir);
}

BENCHMARK(BM_AppendPublish)->Arg(1)->Arg(8)->UseRealTime();
BENCHMARK(BM_ColdStartPublish)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RehydrateDirectory)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LoadSnapshotPooled)->Arg(2)->Arg(8)->Arg(64)->Arg(256);

}  // namespace
}  // namespace cksafe

BENCHMARK_MAIN();
