// Snapshot-consistency torture test: N reader threads issue mixed
// point/profile queries through the QueryRouter while a writer swaps to the
// next snapshot as soon as some reader has been served the current one.
//
// The contract under test is the RCU one: every served answer must be
// consistent with EXACTLY ONE published snapshot — equal, on every field
// with exact `==`, to the ReferenceAnswer of a fresh synchronous
// DisclosureAnalyzer over that snapshot — never a torn mix of two
// releases. Each answer names the snapshot sequence it was computed
// against, so the readers record their answers and, after they join,
// every answer is verified against the registry of everything the writer
// published. Per reader, observed sequences must also be nondecreasing
// (a router batch never travels back in time).
//
// Runs under the ASan/UBSan and TSan CI steps (see .github/workflows).

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cksafe/serve/query_router.h"
#include "cksafe/serve/reference_answer.h"
#include "cksafe/serve/release_snapshot.h"
#include "cksafe/serve/snapshot_store.h"
#include "testing_util.h"

namespace cksafe {
namespace {

using testing::MakeBuckets;
using testing::RandomHistograms;
using testing::SyntheticBuckets;

constexpr size_t kSnapshots = 12;
constexpr size_t kMaxK = 6;
constexpr size_t kReaders = 4;
constexpr size_t kQueriesPerReader = 400;

TEST(ServeTortureTest, AnswersMatchExactlyOnePublishedSnapshot) {
  const uint64_t seed = testing::TestSeed(0x70727572ULL);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  // Distinct random bucketizations, one per snapshot. Buckets >= 2 so
  // per-bucket queries for buckets {0, 1} are always in range.
  SnapshotRegistry registry;
  for (size_t s = 1; s <= kSnapshots; ++s) {
    SyntheticBuckets buckets =
        MakeBuckets(RandomHistograms(&rng, 6 + s % 5, 4, 7), 4);
    registry[{"tenant", s}] =
        MakeReleaseSnapshot(s, std::move(buckets.bucketization));
  }

  ServingDirectory directory;
  SnapshotStore* store = directory.GetOrAddTenant("tenant");
  store->Publish(registry.at({"tenant", 1}));
  QueryRouter router(&directory);  // live worker thread

  // Newest snapshot sequence any reader has been served. The writer paces
  // its swaps on it, not on a sleep, so reads straddle every transition
  // however the host schedules the threads; the deadline only bounds a hang.
  std::atomic<uint64_t> newest_seen{0};
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    const auto await_served = [&](uint64_t sequence) {
      while (newest_seen.load() < sequence &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    };
    for (size_t s = 2; s <= kSnapshots; ++s) {
      await_served(s - 1);
      store->Publish(registry.at({"tenant", s}));
    }
    await_served(kSnapshots);
    writer_done = true;
  });

  std::vector<std::vector<ServedAnswer>> served(kReaders);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng reader_rng(seed + 0xbeef + r);
      uint64_t last_sequence = 0;
      // Keep querying until BOTH the minimum count is reached and the
      // writer has swapped through every snapshot, so reads genuinely
      // straddle every transition.
      for (size_t i = 0; i < kQueriesPerReader || !writer_done.load(); ++i) {
        Query query;
        query.tenant = "tenant";
        query.k = reader_rng.NextBelow(kMaxK + 1);
        switch (reader_rng.NextBelow(4)) {
          case 0:
            query.kind = QueryKind::kIsCkSafe;
            query.c = 0.3 + 0.1 * static_cast<double>(reader_rng.NextBelow(7));
            break;
          case 1:
            query.kind = QueryKind::kDisclosure;
            break;
          case 2:
            query.kind = QueryKind::kProfileAtK;
            break;
          default:
            query.kind = QueryKind::kPerBucket;
            query.bucket = reader_rng.NextBelow(2);
            break;
        }
        // Counter sanity from inside the storm (regression, PR 7):
        // submitted is counted before the push, so no interleaving of
        // submitters, worker, and this read may show more answers than
        // submissions. Sampled every few queries to keep the loop hot.
        if (i % 16 == 0) {
          const RouterStats mid = router.stats();
          ASSERT_LE(mid.answered, mid.submitted)
              << "stats raced: answered overtook submitted";
        }
        const auto answer = router.Ask(query);
        if (!answer.ok()) {
          // Backpressure is the only admissible failure under load.
          ASSERT_EQ(answer.status().code(), StatusCode::kResourceExhausted);
          continue;
        }
        const uint64_t sequence = answer->snapshot_sequence;
        ASSERT_GE(sequence, uint64_t{1});
        ASSERT_LE(sequence, kSnapshots);
        ASSERT_GE(sequence, last_sequence)
            << "a reader observed snapshots moving backwards";
        last_sequence = sequence;
        uint64_t seen = newest_seen.load();
        while (seen < sequence &&
               !newest_seen.compare_exchange_weak(seen, sequence)) {
        }

        served[r].push_back({query, *answer});
      }
    });
  }

  for (auto& reader : readers) reader.join();
  writer.join();
  router.Stop();

  // Every answer equals the reference for the ONE snapshot it names.
  std::vector<ServedAnswer> all;
  for (const auto& answers : served) {
    all.insert(all.end(), answers.begin(), answers.end());
  }
  const Status verified = VerifyServedAnswers(all, registry);
  EXPECT_TRUE(verified.ok()) << verified;
  EXPECT_TRUE(writer_done.load());
  const RouterStats stats = router.stats();
  EXPECT_GE(stats.answered, 1u);
  // At quiescence every admitted query has been answered (the worker
  // drains the queue before joining), so the inequality tightens to
  // equality — rejected queries were rolled back out of `submitted`.
  EXPECT_EQ(stats.answered, stats.submitted);
  // The coalescing machinery must actually have been exercised: strictly
  // fewer sweeps than answers (the whole point of batching), and at least
  // one snapshot reload observed from the writer's swaps.
  EXPECT_LT(stats.profile_sweeps + stats.per_bucket_sweeps, stats.answered);
  EXPECT_GE(stats.snapshot_reloads, 2u);
}

}  // namespace
}  // namespace cksafe
