// Streaming release demo: the synthetic Adult table arrives in batches; a
// one-tenant MultiPolicyPublisher re-publishes after each batch (AddBatch +
// PublishAll), re-verifying every row while its session cache reuses
// MINIMIZE1 tables across releases, and an IncrementalAnalyzer tracks the
// worst-case disclosure of the live Figure-5 bucketization tuple-by-tuple.
// Run: ./streaming_adult [rows] [batch]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <vector>

#include "cksafe/adult/adult.h"
#include "cksafe/search/publisher.h"
#include "cksafe/stream/incremental_analyzer.h"
#include "cksafe/stream/multi_policy_publisher.h"

using namespace cksafe;

int main(int argc, char** argv) {
  const size_t rows = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 3000;
  const size_t batch = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 500;
  const Table full = GenerateSyntheticAdult(rows, 7);
  auto qis = AdultQuasiIdentifiers();
  if (!qis.ok()) {
    std::fprintf(stderr, "%s\n", qis.status().ToString().c_str());
    return 1;
  }

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

  // Live monitor: the Figure-5 bucketization (Age in 20-year intervals,
  // everything else suppressed) maintained incrementally.
  const LatticeNode fig5 = AdultFigure5Node();
  IncrementalAnalyzer monitor(kAdultOccupationValues);
  std::unordered_map<int64_t, size_t> bucket_of_group;

  MultiPolicyPublisher stream(Table(full.schema()), *qis,
                              kAdultOccupationColumn, options);
  stream.AddTenant("stream", options.c, options.k);
  std::printf("streaming %zu synthetic Adult rows in batches of %zu "
              "(c=%.2f, k=%zu)\n\n",
              rows, batch, options.c, options.k);
  std::printf("%8s %8s %10s %12s %8s %12s\n", "rows", "node", "monitor",
              "disclosure", "evals", "cache hit%");

  for (size_t start = 0; start < rows; ) {
    const size_t end = std::min(start + batch, rows);  // final batch may be short
    // Feed the batch to both consumers.
    std::vector<std::vector<int32_t>> cells;
    std::unordered_map<size_t, std::vector<int32_t>> deltas;
    for (size_t r = start; r < end; ++r) {
      cells.push_back(row_cells(r));
      const int32_t age = full.at(static_cast<PersonId>(r), kAdultAgeColumn);
      const int64_t group =
          (*qis)[0].hierarchy->GroupOf(age, static_cast<size_t>(fig5[0]));
      const int32_t s =
          full.at(static_cast<PersonId>(r), kAdultOccupationColumn);
      auto it = bucket_of_group.find(group);
      if (it == bucket_of_group.end()) {
        // New group: open the bucket right away so later rows of the batch
        // can join it through AddTuples.
        bucket_of_group.emplace(group, monitor.AddBucket({s}));
      } else {
        deltas[it->second].push_back(s);
      }
    }
    for (auto& [bucket, values] : deltas) {
      if (!values.empty()) monitor.AddTuples(bucket, values);
    }
    const double live = monitor.MaxDisclosureImplications(options.k).disclosure;

    if (stream.AddBatch(cells).ok() == false) return 1;
    auto releases = stream.PublishAll();
    const Status status =
        releases.ok() ? releases->front().release.status() : releases.status();
    if (!status.ok()) {
      std::fprintf(stderr, "release failed: %s\n", status.ToString().c_str());
      return 1;
    }
    const PublishedRelease& release = *releases->front().release;
    const auto& cache = stream.cache();
    std::string node = "[";
    for (size_t i = 0; i < release.node.size(); ++i) {
      node += (i > 0 ? " " : "") + std::to_string(release.node[i]);
    }
    node += "]";
    std::printf(
        "%8zu %8s %10.4f %12.4f %8llu %11.1f%%\n", stream.table().num_rows(),
        node.c_str(), live, release.worst_case.disclosure,
        static_cast<unsigned long long>(release.search_stats.evaluations),
        100.0 * static_cast<double>(cache.hits()) /
            static_cast<double>(cache.hits() + cache.misses()));
    start = end;
  }

  const IncrementalStats& mstats = monitor.stats();
  std::printf(
      "\nincremental monitor: %llu deltas, %llu DP rows recomputed, "
      "%llu reused, %llu table re-pins\n",
      static_cast<unsigned long long>(mstats.deltas),
      static_cast<unsigned long long>(mstats.rows_recomputed),
      static_cast<unsigned long long>(mstats.rows_reused),
      static_cast<unsigned long long>(mstats.tables_refetched));
  return 0;
}
