// Fault injection against the fleet: SIGKILL a shard mid-query (the
// test_stall_queries_ms seam holds queries in flight) and mid-publish (the
// durable store's test_crash_after_bytes seam lands the kill inside the
// append stream). The router must surface Unavailable — every pending
// future resolves, submits to a down shard fail fast, nothing hangs — and
// a durable shard restarted onto its torn store must recover to an exact
// committed prefix and serve bit-identically to the pre-crash snapshots.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cksafe/persist/durable_store.h"
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

TEST(ShardFaultInjectionTest, KillMidQueryResolvesEveryPendingFuture) {
  const uint64_t seed = TestSeed(20260840);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  ShardFleetOptions options;
  options.num_shards = 2;
  options.tweak_shard = [](size_t, ShardServerOptions* shard) {
    shard->test_stall_queries_ms = 300;  // queries are in flight at the kill
  };
  auto fleet_or = ShardFleet::Start(options);
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  std::unique_ptr<ShardFleet> fleet = std::move(fleet_or).value();

  const auto snapshot = RandomSnapshot(&rng, 1);
  ASSERT_TRUE(fleet->PublishSnapshot("gold", snapshot).ok());
  const size_t shard = fleet->ShardOf("gold");

  Query query;
  query.tenant = "gold";
  query.kind = QueryKind::kDisclosure;
  query.k = 2;
  std::vector<std::future<StatusOr<QueryAnswer>>> pending;
  for (size_t i = 0; i < 6; ++i) {
    auto submitted = fleet->Submit(query);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    pending.push_back(std::move(submitted).value());
  }
  // Give the shard time to be mid-stall on the first query, then kill it.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(fleet->KillShard(shard).ok());
  EXPECT_TRUE(fleet->ShardDown(shard));

  for (auto& future : pending) {
    // The contract under fire: resolved with Unavailable, never a hang.
    ASSERT_EQ(future.wait_for(std::chrono::seconds(30)),
              std::future_status::ready)
        << "pending query never resolved after SIGKILL";
    const auto answer = future.get();
    ASSERT_FALSE(answer.ok());
    EXPECT_EQ(answer.status().code(), StatusCode::kUnavailable)
        << answer.status().ToString();
  }

  // Down shard: fail fast, before any bytes move.
  const auto refused = fleet->Submit(query);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);

  // Restart (fresh in-memory shard), re-adopt the same snapshot, and the
  // tenant serves again — bit-identically.
  ASSERT_TRUE(fleet->RestartShard(shard).ok());
  ASSERT_TRUE(fleet->PublishSnapshot("gold", snapshot).ok());
  const auto answer = fleet->Ask(query);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  const Status verified =
      VerifyServedAnswers({{query, *answer}}, fleet->PublishedRegistry());
  EXPECT_TRUE(verified.ok()) << verified;
  EXPECT_TRUE(fleet->ShutdownAll().ok());
}

TEST(ShardFaultInjectionTest, DurableShardRehydratesBitIdenticallyAfterKill) {
  const uint64_t seed = TestSeed(20260841);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  ScopedTempDir stores;
  ShardFleetOptions options;
  options.num_shards = 2;
  options.durable_root = stores.path() + "/fleet";
  auto fleet_or = ShardFleet::Start(options);
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  std::unique_ptr<ShardFleet> fleet = std::move(fleet_or).value();

  const std::vector<std::string> tenants = {"gold", "std", "free"};
  for (const std::string& tenant : tenants) {
    for (uint64_t sequence = 1; sequence <= 2; ++sequence) {
      ASSERT_TRUE(
          fleet->PublishSnapshot(tenant, RandomSnapshot(&rng, sequence)).ok());
    }
  }

  // Deterministic probe set, asked before and after the crash: the
  // answers must be identical field for field.
  std::vector<Query> probes;
  for (size_t i = 0; i < 24; ++i) {
    probes.push_back(RandomQuery(&rng, tenants[i % tenants.size()]));
  }
  std::vector<QueryAnswer> before;
  for (const Query& probe : probes) {
    const auto answer = fleet->Ask(probe);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    before.push_back(*answer);
  }

  for (size_t shard = 0; shard < fleet->num_shards(); ++shard) {
    ASSERT_TRUE(fleet->KillShard(shard).ok());
    ASSERT_TRUE(fleet->RestartShard(shard).ok());
  }
  for (const std::string& tenant : tenants) {
    // Resync cross-checks the rehydrated history against the registry
    // snapshot for snapshot (SnapshotsBitIdentical) — Internal on drift.
    ASSERT_TRUE(fleet->ResyncTenant(tenant).ok());
  }

  std::vector<ServedAnswer> served;
  for (size_t i = 0; i < probes.size(); ++i) {
    const auto answer = fleet->Ask(probes[i]);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_TRUE(*answer == before[i]) << "probe " << i << " changed";
    served.push_back({probes[i], *answer});
  }
  const Status verified =
      VerifyServedAnswers(served, fleet->PublishedRegistry());
  EXPECT_TRUE(verified.ok()) << verified;
  EXPECT_TRUE(fleet->ShutdownAll().ok());
}

TEST(ShardFaultInjectionTest, KillMidPublishRecoversToACommittedPrefix) {
  const uint64_t seed = TestSeed(20260842);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);

  // The publish plan, fixed up front so the crash-seam threshold can be
  // derived from a clean in-process run over the very same snapshots. The
  // tenant is one of t0 … t9, all names of one length, so the probe's
  // byte count holds for whichever one the fleet routes to shard 0.
  std::vector<std::shared_ptr<const ReleaseSnapshot>> plan;
  for (uint64_t sequence = 1; sequence <= 4; ++sequence) {
    plan.push_back(RandomSnapshot(&rng, sequence, 3, 3));
  }
  uint64_t total_bytes = 0;
  {
    ScopedTempDir probe;
    DurableStoreOptions store_options;
    store_options.dir = probe.path() + "/store";
    auto store = DurableStore::Open(store_options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (const auto& snapshot : plan) {
      ASSERT_TRUE((*store)->AppendPublish("t0", *snapshot).ok());
    }
    total_bytes =
        std::filesystem::file_size(store_options.dir + "/MANIFEST") +
        std::filesystem::file_size(store_options.dir + "/segments.dat");
  }
  ASSERT_GT(total_bytes, 0u);

  // With two shards the seam is armed on shard 0 only, which is forked
  // first. Shard 1 starts with a copy of every fd the fleet had open at
  // its fork, so the crashed shard's link closes only because the fleet
  // closed its copy of shard 0's end before forking shard 1.
  for (const size_t num_shards : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE(::testing::Message() << num_shards << " shard(s)");
    ScopedTempDir stores;
    ShardFleetOptions options;
    options.num_shards = num_shards;
    options.durable_root = stores.path() + "/fleet";
    // Halfway through the byte stream: the SIGKILL lands mid-append,
    // inside some publish — not on a tidy boundary of our choosing.
    const int64_t threshold = static_cast<int64_t>(total_bytes / 2);
    options.tweak_shard = [threshold](size_t shard,
                                      ShardServerOptions* shard_options) {
      if (shard == 0) shard_options->test_crash_after_bytes = threshold;
    };
    auto fleet_or = ShardFleet::Start(options);
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    std::unique_ptr<ShardFleet> fleet = std::move(fleet_or).value();
    std::string tenant;
    for (size_t i = 0; tenant.empty(); ++i) {
      ASSERT_LT(i, 10u) << "no single-digit tenant routes to shard 0";
      const std::string candidate = "t" + std::to_string(i);
      if (fleet->ShardOf(candidate) == 0) tenant = candidate;
    }

    // Drive the plan through the crashing shard. Each failure is a real
    // SIGKILL mid-publish; recovery is restart + resync + re-adopt (the
    // idempotent re-adopt makes a commit-then-crash retry safe).
    size_t crashes = 0;
    for (const auto& snapshot : plan) {
      for (size_t attempt = 0;; ++attempt) {
        ASSERT_LT(attempt, 10u) << "publish never converged";
        const Status published = fleet->PublishSnapshot(tenant, snapshot);
        if (published.ok()) break;
        ++crashes;
        ASSERT_TRUE(fleet->ShardDown(0));
        ASSERT_TRUE(fleet->RestartShard(0).ok());
        // Re-sync the writer with whatever actually committed; the
        // handoff is checked bit-identically against the registry.
        ASSERT_TRUE(fleet->ResyncTenant(tenant).ok());
      }
    }
    // total/2 sits strictly inside a 4-publish stream, so the seam fired.
    EXPECT_GE(crashes, 1u);

    // One more kill/restart on the now-complete store: the full history
    // must rehydrate and serve bit-identically.
    ASSERT_TRUE(fleet->KillShard(0).ok());
    ASSERT_TRUE(fleet->RestartShard(0).ok());
    ASSERT_TRUE(fleet->ResyncTenant(tenant).ok());
    const size_t iters = TestIters(30);
    std::vector<ServedAnswer> served;
    for (size_t i = 0; i < iters; ++i) {
      const Query query = RandomQuery(&rng, tenant);
      const auto answer = fleet->Ask(query);
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      EXPECT_EQ(answer->snapshot_sequence, 4u);
      served.push_back({query, *answer});
    }
    const Status verified =
        VerifyServedAnswers(served, fleet->PublishedRegistry());
    EXPECT_TRUE(verified.ok()) << verified;
    EXPECT_TRUE(fleet->ShutdownAll().ok());
  }
}

}  // namespace
}  // namespace cksafe
