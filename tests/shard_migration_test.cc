// Live tenant migration: publish-to-new / drain-old must be invisible in
// the answers. Sequences are fleet-assigned and adopted verbatim, so a
// migrated tenant keeps its history; every answer produced while a
// migration is racing the readers — and after it — must be bit-identical
// to a fresh synchronous DisclosureAnalyzer over the snapshot the answer
// names. Also covered: migrate-back (A -> B -> A, the idempotent re-adopt
// path), publishing after a migration, no-op and unknown-tenant edges, and
// a durable target surviving a kill/restart cycle after the handoff.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cksafe/serve/reference_answer.h"
#include "cksafe/serve/release_snapshot.h"
#include "cksafe/shard/fleet.h"
#include "cksafe/util/random.h"
#include "shard_testing_util.h"
#include "testing_util.h"

namespace cksafe {
namespace {

using testing::RandomQuery;
using testing::RandomSnapshot;
using testing::ScopedTempDir;
using testing::SeedTrace;
using testing::TestIters;
using testing::TestSeed;

TEST(ShardMigrationTest, AnswersStayBitIdenticalWhileMigrationRaces) {
  const uint64_t seed = TestSeed(20260830);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  ShardFleetOptions options;
  options.num_shards = 2;
  auto fleet_or = ShardFleet::Start(options);
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  std::unique_ptr<ShardFleet> fleet = std::move(fleet_or).value();

  for (uint64_t sequence = 1; sequence <= 3; ++sequence) {
    ASSERT_TRUE(
        fleet->PublishSnapshot("gold", RandomSnapshot(&rng, sequence)).ok());
  }
  const auto registry = fleet->PublishedRegistry();
  const size_t source = fleet->ShardOf("gold");
  const size_t target = (source + 1) % fleet->num_shards();

  // Readers hammer the tenant while the writer migrates it. Per-thread
  // rngs: query choice must not race.
  constexpr size_t kReaders = 2;
  const size_t after_flip = TestIters(20);
  std::atomic<bool> halt{false};
  std::vector<std::vector<ServedAnswer>> served(kReaders);
  std::vector<std::atomic<size_t>> served_count(kReaders);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng reader_rng(seed ^ (0x9e3779b97f4a7c15ULL * (r + 1)));
      while (!halt.load(std::memory_order_acquire)) {
        const Query query = RandomQuery(&reader_rng, "gold");
        const auto answer = fleet->Ask(query);
        // Migration must be invisible: no window of failure exists.
        ASSERT_TRUE(answer.ok()) << answer.status().ToString();
        served[r].push_back({query, *answer});
        served_count[r].fetch_add(1, std::memory_order_release);
      }
    });
  }

  // Paced by progress, not sleeps: migrate once every reader has served an
  // answer, and halt once each has served `after_flip` more after the
  // flip. The deadline only bounds a hang.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  const auto wait_for_served = [&](const std::vector<size_t>& at_least) {
    for (size_t r = 0; r < kReaders; ++r) {
      while (served_count[r].load(std::memory_order_acquire) < at_least[r] &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    }
  };
  wait_for_served(std::vector<size_t>(kReaders, 1));
  ASSERT_TRUE(fleet->MigrateTenant("gold", target).ok());
  EXPECT_EQ(fleet->ShardOf("gold"), target);
  std::vector<size_t> halt_at;
  for (const auto& count : served_count) {
    halt_at.push_back(count.load(std::memory_order_acquire) + after_flip);
  }
  wait_for_served(halt_at);
  halt.store(true, std::memory_order_release);
  for (auto& thread : readers) thread.join();
  for (size_t r = 0; r < kReaders; ++r) {
    EXPECT_GE(served[r].size(), halt_at[r])
        << "reader " << r << " stalled before the migration race completed";
  }

  std::vector<ServedAnswer> all;
  for (const auto& records : served) {
    for (const ServedAnswer& record : records) {
      EXPECT_EQ(record.answer.snapshot_sequence, 3u);
      all.push_back(record);
    }
  }
  EXPECT_FALSE(all.empty());
  const Status verified = VerifyServedAnswers(all, registry);
  EXPECT_TRUE(verified.ok()) << verified;
  EXPECT_TRUE(fleet->ShutdownAll().ok());
}

TEST(ShardMigrationTest, MigrateBackThenPublishAdvancesSequences) {
  const uint64_t seed = TestSeed(20260831);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  ShardFleetOptions options;
  options.num_shards = 3;
  auto fleet_or = ShardFleet::Start(options);
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  std::unique_ptr<ShardFleet> fleet = std::move(fleet_or).value();

  for (uint64_t sequence = 1; sequence <= 2; ++sequence) {
    ASSERT_TRUE(
        fleet->PublishSnapshot("gold", RandomSnapshot(&rng, sequence)).ok());
  }
  const size_t home = fleet->ShardOf("gold");
  const size_t away = (home + 1) % fleet->num_shards();

  // A -> B, then B -> A: the second hop re-adopts sequences the home
  // shard already holds — the idempotent-re-adopt seam.
  ASSERT_TRUE(fleet->MigrateTenant("gold", away).ok());
  ASSERT_TRUE(fleet->MigrateTenant("gold", home).ok());
  EXPECT_EQ(fleet->ShardOf("gold"), home);

  // Publishing after the round trip keeps assigning fleet sequences.
  ASSERT_TRUE(fleet->PublishSnapshot("gold", RandomSnapshot(&rng, 3)).ok());
  const size_t iters = TestIters(40);
  std::vector<ServedAnswer> served;
  for (size_t i = 0; i < iters; ++i) {
    const Query query = RandomQuery(&rng, "gold");
    const auto answer = fleet->Ask(query);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_EQ(answer->snapshot_sequence, 3u);
    served.push_back({query, *answer});
  }
  const Status verified =
      VerifyServedAnswers(served, fleet->PublishedRegistry());
  EXPECT_TRUE(verified.ok()) << verified;

  // And the migrated history is complete: one more hop still carries all
  // three sequences (a durable target would insist on the full prefix).
  ASSERT_TRUE(fleet->MigrateTenant("gold", away).ok());
  const auto answer = fleet->Ask(RandomQuery(&rng, "gold"));
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->snapshot_sequence, 3u);
  EXPECT_TRUE(fleet->ShutdownAll().ok());
}

TEST(ShardMigrationTest, MigrationEdges) {
  const uint64_t seed = TestSeed(20260832);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  ShardFleetOptions options;
  options.num_shards = 2;
  auto fleet_or = ShardFleet::Start(options);
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  std::unique_ptr<ShardFleet> fleet = std::move(fleet_or).value();
  ASSERT_TRUE(fleet->PublishSnapshot("gold", RandomSnapshot(&rng, 1)).ok());

  // Migrating to the shard the tenant already lives on is a no-op.
  const size_t home = fleet->ShardOf("gold");
  EXPECT_TRUE(fleet->MigrateTenant("gold", home).ok());
  EXPECT_EQ(fleet->ShardOf("gold"), home);

  // A tenant with no history has nothing to hand off. (Target a shard it
  // does NOT hash to, or the call degenerates to the same-shard no-op.)
  const size_t elsewhere =
      (fleet->ShardOf("nobody") + 1) % fleet->num_shards();
  EXPECT_EQ(fleet->MigrateTenant("nobody", elsewhere).code(),
            StatusCode::kNotFound);

  // Out-of-range target shard must not wedge the routing table.
  EXPECT_FALSE(fleet->MigrateTenant("gold", 99).ok());
  EXPECT_EQ(fleet->ShardOf("gold"), home);
  EXPECT_TRUE(fleet->Ask(RandomQuery(&rng, "gold")).ok());
  EXPECT_TRUE(fleet->ShutdownAll().ok());
}

TEST(ShardMigrationTest, DurableTargetServesBitIdenticallyAfterCrash) {
  const uint64_t seed = TestSeed(20260833);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  ScopedTempDir stores;
  ShardFleetOptions options;
  options.num_shards = 2;
  options.durable_root = stores.path() + "/fleet";
  auto fleet_or = ShardFleet::Start(options);
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  std::unique_ptr<ShardFleet> fleet = std::move(fleet_or).value();

  for (uint64_t sequence = 1; sequence <= 2; ++sequence) {
    ASSERT_TRUE(
        fleet->PublishSnapshot("gold", RandomSnapshot(&rng, sequence)).ok());
  }
  const size_t source = fleet->ShardOf("gold");
  const size_t target = (source + 1) % fleet->num_shards();
  // The durable target must accept the full contiguous history (its store
  // appends from sequence 1) — a latest-only handoff would fail here.
  ASSERT_TRUE(fleet->MigrateTenant("gold", target).ok());

  // SIGKILL the target, restart it onto the same store: the migrated
  // history must rehydrate bit-identically from disk.
  ASSERT_TRUE(fleet->KillShard(target).ok());
  ASSERT_TRUE(fleet->RestartShard(target).ok());
  ASSERT_TRUE(fleet->ResyncTenant("gold").ok());  // bit-identity enforced

  const auto registry = fleet->PublishedRegistry();
  ASSERT_EQ(registry.size(), 2u);
  const size_t iters = TestIters(40);
  std::vector<ServedAnswer> served;
  for (size_t i = 0; i < iters; ++i) {
    const Query query = RandomQuery(&rng, "gold");
    const auto answer = fleet->Ask(query);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_EQ(answer->snapshot_sequence, 2u);
    served.push_back({query, *answer});
  }
  const Status verified = VerifyServedAnswers(served, registry);
  EXPECT_TRUE(verified.ok()) << verified;
  EXPECT_TRUE(fleet->ShutdownAll().ok());
}

}  // namespace
}  // namespace cksafe
