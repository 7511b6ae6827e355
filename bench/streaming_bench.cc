// Benchmarks for the incremental streaming engine (experiment E7 in
// DESIGN.md): re-analysis cost after batched inserts, incremental vs. a
// from-scratch DisclosureAnalyzer per batch (with and without a persistent
// MINIMIZE1 cache), and sequential publishing through one publisher
// session vs. a cold publish per prefix. Every incremental re-analysis
// result is CHECKed bit-identical to the from-scratch answer before it is
// timed as a win; the publish paths' equivalence is asserted in
// tests/multi_policy_search_test.cc.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cksafe/adult/adult.h"
#include "cksafe/anon/bucketization.h"
#include "cksafe/core/disclosure.h"
#include "cksafe/search/publisher.h"
#include "cksafe/stream/incremental_analyzer.h"
#include "cksafe/stream/multi_policy_publisher.h"

namespace cksafe {
namespace {

constexpr size_t kRows = 20000;
constexpr size_t kK = 3;

const Table& AdultTable() {
  static const Table* table = new Table(GenerateSyntheticAdult(kRows, 7));
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

// The stream fixture: every row mapped to its bucket at `node` (generalized
// quasi-identifier tuple), in row order — the arrival order both engines
// see, so person ids agree and results can be compared exactly.
struct StreamFixture {
  std::vector<size_t> bucket_of_row;   // dense bucket ids by first arrival
  std::vector<int32_t> sensitive;      // per row
  size_t num_buckets = 0;
};

StreamFixture MakeFixture(const LatticeNode& node) {
  const Table& table = AdultTable();
  const auto& qis = AdultQis();
  StreamFixture fixture;
  std::unordered_map<uint64_t, size_t> bucket_ids;
  for (size_t row = 0; row < table.num_rows(); ++row) {
    uint64_t key = 0;
    for (size_t q = 0; q < qis.size(); ++q) {
      const int32_t code = table.at(static_cast<PersonId>(row), qis[q].column);
      key = key * 1000003 +
            static_cast<uint64_t>(
                qis[q].hierarchy->GroupOf(code, static_cast<size_t>(node[q])));
    }
    auto [it, inserted] = bucket_ids.emplace(key, bucket_ids.size());
    fixture.bucket_of_row.push_back(it->second);
    fixture.sensitive.push_back(
        table.at(static_cast<PersonId>(row), kAdultOccupationColumn));
  }
  fixture.num_buckets = bucket_ids.size();
  return fixture;
}

const StreamFixture& Fixture(int which) {
  // 0: the Figure-5 node (few fat buckets); 1: a fine node (age in 5-year
  // intervals, marital kept) with two orders of magnitude more buckets,
  // where per-batch DP-row reuse dominates.
  static const StreamFixture* coarse = new StreamFixture(
      MakeFixture(AdultFigure5Node()));
  static const StreamFixture* fine = new StreamFixture(
      MakeFixture(LatticeNode{1, 0, 1, 0}));
  return which == 0 ? *coarse : *fine;
}

// From-scratch baseline: rebuilds member lists, histograms and the analyzer
// for the whole prefix, then queries. This is what every release paid
// before the stream/ subsystem existed.
double FreshAnalysis(const StreamFixture& fixture, size_t prefix,
                     size_t num_buckets, DisclosureCache* cache) {
  Bucketization b(kAdultOccupationValues);
  std::vector<Bucket> buckets(num_buckets);
  for (auto& bucket : buckets) {
    bucket.histogram.assign(kAdultOccupationValues, 0);
  }
  for (size_t row = 0; row < prefix; ++row) {
    Bucket& bucket = buckets[fixture.bucket_of_row[row]];
    bucket.members.push_back(static_cast<PersonId>(row));
    ++bucket.histogram[fixture.sensitive[row]];
  }
  for (auto& bucket : buckets) {
    if (bucket.members.empty()) continue;
    CKSAFE_CHECK(b.AddBucket(std::move(bucket)).ok());
  }
  DisclosureAnalyzer analyzer(b, cache);
  return analyzer.MaxDisclosureImplications(kK).disclosure;
}

// One pass over the stream: `batch` rows arrive, the engine re-analyzes.
// mode 0: fresh analyzer + cold cache per batch (full recomputation),
// mode 1: fresh analyzer + persistent cache (PR-1 state of the art),
// mode 2: IncrementalAnalyzer (this PR).
void BM_StreamingReanalysis(benchmark::State& state) {
  const int which = static_cast<int>(state.range(0));
  const int mode = static_cast<int>(state.range(1));
  const size_t batch = static_cast<size_t>(state.range(2));
  const StreamFixture& fixture = Fixture(which);
  const size_t rows = fixture.bucket_of_row.size();

  // Reference curve (one disclosure value per batch) for the CHECK below.
  static std::unordered_map<std::string, std::vector<double>> reference;
  const std::string ref_key = std::to_string(which) + ":" + std::to_string(batch);
  if (reference.find(ref_key) == reference.end()) {
    std::vector<double> curve;
    for (size_t end = batch; end <= rows; end += batch) {
      DisclosureCache cold;
      curve.push_back(FreshAnalysis(fixture, end, fixture.num_buckets, &cold));
    }
    reference.emplace(ref_key, std::move(curve));
  }
  const std::vector<double>& expected = reference[ref_key];

  for (auto _ : state) {
    size_t checks = 0;
    if (mode == 2) {
      DisclosureCache cache;
      IncrementalAnalyzer inc(kAdultOccupationValues, &cache);
      std::vector<int64_t> bucket_index(fixture.num_buckets, -1);
      std::vector<std::vector<int32_t>> pending(fixture.num_buckets);
      for (size_t end = batch; end <= rows; end += batch) {
        std::vector<size_t> touched;
        for (size_t row = end - batch; row < end; ++row) {
          const size_t key = fixture.bucket_of_row[row];
          if (pending[key].empty()) touched.push_back(key);
          pending[key].push_back(fixture.sensitive[row]);
        }
        for (size_t key : touched) {
          if (bucket_index[key] < 0) {
            bucket_index[key] = static_cast<int64_t>(inc.AddBucket(pending[key]));
          } else {
            inc.AddTuples(static_cast<size_t>(bucket_index[key]), pending[key]);
          }
          pending[key].clear();
        }
        const double d = inc.MaxDisclosureImplications(kK).disclosure;
        CKSAFE_CHECK(d == expected[checks])
            << "incremental diverged from full recomputation";
        ++checks;
      }
    } else {
      DisclosureCache persistent;
      for (size_t end = batch; end <= rows; end += batch) {
        DisclosureCache cold;
        DisclosureCache* cache = mode == 1 ? &persistent : &cold;
        const double d = FreshAnalysis(fixture, end, fixture.num_buckets, cache);
        CKSAFE_CHECK(d == expected[checks]);
        ++checks;
      }
    }
    benchmark::DoNotOptimize(checks);
  }
  state.counters["batches"] = static_cast<double>(rows / batch);
  state.counters["buckets"] = static_cast<double>(fixture.num_buckets);
  state.SetLabel(std::string(which == 0 ? "coarse (Fig5 node)" : "fine node") +
                 (mode == 0   ? ", fresh + cold cache"
                  : mode == 1 ? ", fresh + persistent cache"
                              : ", incremental"));
}
BENCHMARK(BM_StreamingReanalysis)
    ->Unit(benchmark::kMillisecond)
    ->Args({0, 0, 500})
    ->Args({0, 1, 500})
    ->Args({0, 2, 500})
    ->Args({1, 0, 500})
    ->Args({1, 1, 500})
    ->Args({1, 2, 500});

// Sequential publishing: a one-tenant MultiPolicyPublisher (AddBatch +
// PublishAll over one session cache) vs. a cold Publisher::Publish per
// prefix. Their release-for-release equivalence is asserted by
// MultiPolicyPublisherTest.StreamingBatchesKeepTenantsConsistent; here only
// success is CHECKed so the timed loop does not pay for a second publish.
void BM_StreamingPublish(benchmark::State& state) {
  const bool session = state.range(0) == 1;
  constexpr size_t kPublishRows = 2000;
  constexpr size_t kBatch = 400;
  const Table full = GenerateSyntheticAdult(kPublishRows, 7);
  PublisherOptions options;
  options.c = 0.75;
  options.k = 2;

  auto row_cells = [&](size_t row) {
    std::vector<int32_t> cells(full.num_columns());
    for (size_t c = 0; c < full.num_columns(); ++c) {
      cells[c] = full.at(static_cast<PersonId>(row), c);
    }
    return cells;
  };

  uint64_t evaluations = 0;
  for (auto _ : state) {
    evaluations = 0;
    if (session) {
      Table initial(full.schema());
      for (size_t r = 0; r < kBatch; ++r) {
        CKSAFE_CHECK(initial.AppendRow(row_cells(r)).ok());
      }
      MultiPolicyPublisher stream(std::move(initial), AdultQis(),
                                  kAdultOccupationColumn, options);
      stream.AddTenant("stream", options.c, options.k);
      for (size_t end = kBatch; end <= kPublishRows; end += kBatch) {
        auto releases = stream.PublishAll();
        CKSAFE_CHECK(releases.ok() && releases->front().release.ok());
        evaluations += releases->front().release->search_stats.evaluations;
        if (end + kBatch <= kPublishRows) {
          std::vector<std::vector<int32_t>> rows;
          for (size_t r = end; r < end + kBatch; ++r) {
            rows.push_back(row_cells(r));
          }
          CKSAFE_CHECK(stream.AddBatch(rows).ok());
        }
      }
    } else {
      const Publisher publisher(options);
      Table prefix(full.schema());
      for (size_t end = kBatch; end <= kPublishRows; end += kBatch) {
        for (size_t r = prefix.num_rows(); r < end; ++r) {
          CKSAFE_CHECK(prefix.AppendRow(row_cells(r)).ok());
        }
        auto release = publisher.Publish(prefix, AdultQis(),
                                         kAdultOccupationColumn);
        CKSAFE_CHECK(release.ok());
        evaluations += release->search_stats.evaluations;
      }
    }
    benchmark::DoNotOptimize(evaluations);
  }
  state.counters["evaluations"] = static_cast<double>(evaluations);
  state.SetLabel(session ? "one-tenant session (shared cache)"
                         : "cold publish per prefix");
}
BENCHMARK(BM_StreamingPublish)->Unit(benchmark::kMillisecond)->Arg(1)->Arg(0);

// E11 thread matrix: the multi-tenant streaming publish at 1/2/4/8 worker
// threads. Each iteration grows the table by one batch and republishes all
// tenants through MultiPolicyPublisher, which runs each lattice level as
// one parallel pass over the pool (histogram rollup, then a profile
// against the shared cache). Output is CHECKed against a 1-thread baseline
// publisher every iteration; compare real_time across the threads argument
// for the scaling, and table_requests against tables_built for the shared
// cache's reuse.
void BM_MultiPolicyStreamingPublish(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  constexpr size_t kPublishRows = 2000;
  constexpr size_t kBatch = 500;
  const Table full = GenerateSyntheticAdult(kPublishRows, 7);
  PublisherOptions base;

  auto row_cells = [&](size_t row) {
    std::vector<int32_t> cells(full.num_columns());
    for (size_t c = 0; c < full.num_columns(); ++c) {
      cells[c] = full.at(static_cast<PersonId>(row), c);
    }
    return cells;
  };
  auto make_publisher = [&](size_t num_threads) {
    Table initial(full.schema());
    for (size_t r = 0; r < kBatch; ++r) {
      CKSAFE_CHECK(initial.AppendRow(row_cells(r)).ok());
    }
    auto publisher = std::make_unique<MultiPolicyPublisher>(
        std::move(initial), AdultQis(), kAdultOccupationColumn, base);
    publisher->AddTenant("strict", 0.7, 3);
    publisher->AddTenant("medium", 0.8, 2);
    publisher->AddTenant("loose", 0.9, 1);
    publisher->mutable_search_options()->num_threads = num_threads;
    return publisher;
  };

  // Reference frontier nodes per prefix from a sequential run (built once,
  // shared across the thread-count args).
  static std::vector<std::vector<LatticeNode>>* reference = [&] {
    auto* nodes = new std::vector<std::vector<LatticeNode>>;
    auto baseline = make_publisher(1);
    for (size_t end = kBatch; end <= kPublishRows; end += kBatch) {
      if (end > kBatch) {
        std::vector<std::vector<int32_t>> rows;
        for (size_t r = end - kBatch; r < end; ++r) rows.push_back(row_cells(r));
        CKSAFE_CHECK(baseline->AddBatch(rows).ok());
      }
      auto releases = baseline->PublishAll();
      CKSAFE_CHECK(releases.ok()) << releases.status();
      std::vector<LatticeNode> per_tenant;
      for (const TenantRelease& tenant : *releases) {
        CKSAFE_CHECK(tenant.release.ok());
        per_tenant.push_back(tenant.release->node);
      }
      nodes->push_back(std::move(per_tenant));
    }
    return nodes;
  }();

  uint64_t prepare_calls = 0;
  uint64_t shared_lookups = 0;
  for (auto _ : state) {
    auto publisher = make_publisher(threads);
    prepare_calls = shared_lookups = 0;
    size_t prefix = 0;
    for (size_t end = kBatch; end <= kPublishRows; end += kBatch, ++prefix) {
      if (end > kBatch) {
        std::vector<std::vector<int32_t>> rows;
        for (size_t r = end - kBatch; r < end; ++r) rows.push_back(row_cells(r));
        CKSAFE_CHECK(publisher->AddBatch(rows).ok());
      }
      auto releases = publisher->PublishAll();
      CKSAFE_CHECK(releases.ok()) << releases.status();
      for (size_t t = 0; t < releases->size(); ++t) {
        CKSAFE_CHECK((*releases)[t].release.ok());
        CKSAFE_CHECK((*releases)[t].release->node == (*reference)[prefix][t])
            << "threaded multi-policy publish diverged from sequential";
      }
      prepare_calls += publisher->last_table_traffic().prepare_calls;
      shared_lookups += publisher->last_table_traffic().shared_lookups;
    }
    benchmark::DoNotOptimize(prefix);
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["table_requests"] = static_cast<double>(prepare_calls);
  state.counters["tables_built"] = static_cast<double>(shared_lookups);
  state.SetLabel("3 tenants, " + std::to_string(threads) +
                 " threads incl. caller, one pass per level");
}
BENCHMARK(BM_MultiPolicyStreamingPublish)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8);

}  // namespace
}  // namespace cksafe

BENCHMARK_MAIN();
