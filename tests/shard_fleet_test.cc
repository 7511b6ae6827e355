// ShardFleet end-to-end: fork real shard processes, route over the wire,
// and hold the serving tier's one non-negotiable — every answer is
// bit-identical to a fresh synchronous DisclosureAnalyzer over the
// snapshot the answer names, across process boundaries and the codec.
// Plus the fleet-level mechanics: deterministic consistent-hash routing,
// in-flight-window backpressure (ResourceExhausted before any bytes
// move), stats scrape, and shutdown/restart. The ShardServerTest cases run
// a shard inside the test process, so the sanitizers see its threads.

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "cksafe/serve/reference_answer.h"
#include "cksafe/serve/release_snapshot.h"
#include "cksafe/shard/fleet.h"
#include "cksafe/shard/shard_server.h"
#include "cksafe/shard/wire.h"
#include "cksafe/util/random.h"
#include "cksafe/util/socket.h"
#include "cksafe/util/subprocess.h"
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

ShardFleetOptions BaseOptions(size_t num_shards) {
  ShardFleetOptions options;
  options.num_shards = num_shards;
  return options;
}

TEST(ShardFleetTest, AnswersAreBitIdenticalToAFreshAnalyzer) {
  const uint64_t seed = TestSeed(20260820);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  auto fleet_or = ShardFleet::Start(BaseOptions(3));
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  std::unique_ptr<ShardFleet> fleet = std::move(fleet_or).value();

  const std::vector<std::string> tenants = {"gold", "std",  "free", "bulk",
                                            "acme", "zeta", "nova", "iris"};
  for (const std::string& tenant : tenants) {
    for (uint64_t sequence = 1; sequence <= 2; ++sequence) {
      ASSERT_TRUE(
          fleet->PublishSnapshot(tenant, RandomSnapshot(&rng, sequence)).ok());
    }
  }
  const auto registry = fleet->PublishedRegistry();
  ASSERT_EQ(registry.size(), tenants.size() * 2);

  const size_t iters = TestIters(120);
  std::vector<ServedAnswer> served;
  for (size_t i = 0; i < iters; ++i) {
    const Query query =
        RandomQuery(&rng, tenants[rng.NextBelow(tenants.size())]);
    const auto answer = fleet->Ask(query);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_EQ(answer->snapshot_sequence, 2u);  // latest published
    served.push_back({query, *answer});
  }
  const Status verified = VerifyServedAnswers(served, registry);
  EXPECT_TRUE(verified.ok()) << verified;
  EXPECT_TRUE(fleet->ShutdownAll().ok());
}

TEST(ShardFleetTest, RoutingIsDeterministicAndSpreadsTenants) {
  auto fleet_or = ShardFleet::Start(BaseOptions(3));
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  std::unique_ptr<ShardFleet> fleet = std::move(fleet_or).value();

  std::vector<bool> used(fleet->num_shards(), false);
  for (size_t i = 0; i < 64; ++i) {
    const std::string tenant = "tenant-" + std::to_string(i);
    const size_t shard = fleet->ShardOf(tenant);
    ASSERT_LT(shard, fleet->num_shards());
    EXPECT_EQ(fleet->ShardOf(tenant), shard);  // stable, no hidden state
    used[shard] = true;
  }
  // 64 tenants over a 3-shard, 16-virtual-node ring: every shard serves.
  for (size_t shard = 0; shard < used.size(); ++shard) {
    EXPECT_TRUE(used[shard]) << "shard " << shard << " owns no tenants";
  }
  EXPECT_TRUE(fleet->ShutdownAll().ok());
}

TEST(ShardFleetTest, UnknownTenantAndOutOfRangeBucketReturnStatus) {
  const uint64_t seed = TestSeed(20260821);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  auto fleet_or = ShardFleet::Start(BaseOptions(2));
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  std::unique_ptr<ShardFleet> fleet = std::move(fleet_or).value();

  Query unknown;
  unknown.tenant = "nobody";
  unknown.kind = QueryKind::kDisclosure;
  EXPECT_FALSE(fleet->Ask(unknown).ok());

  // 3 buckets published; probing bucket 99 is a per-query error that must
  // travel back over the wire as a Status, not poison the connection.
  ASSERT_TRUE(fleet->PublishSnapshot("gold", RandomSnapshot(&rng, 1)).ok());
  Query probe;
  probe.tenant = "gold";
  probe.kind = QueryKind::kPerBucket;
  probe.bucket = 99;
  EXPECT_FALSE(fleet->Ask(probe).ok());

  // The link survives both errors: a well-formed query still answers.
  Query fine;
  fine.tenant = "gold";
  fine.kind = QueryKind::kDisclosure;
  fine.k = 2;
  EXPECT_TRUE(fleet->Ask(fine).ok());
  EXPECT_TRUE(fleet->ShutdownAll().ok());
}

TEST(ShardFleetTest, EmptySnapshotIsRefusedAndTheShardKeepsServing) {
  // A snapshot with no buckets crosses the wire intact, but no analyzer
  // can answer over it: the shard must refuse the publish, not adopt it
  // and abort at the tenant's first query.
  const uint64_t seed = TestSeed(20260828);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  auto fleet_or = ShardFleet::Start(BaseOptions(1));
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  std::unique_ptr<ShardFleet> fleet = std::move(fleet_or).value();
  ASSERT_TRUE(fleet->PublishSnapshot("gold", RandomSnapshot(&rng, 1)).ok());

  const Status refused =
      fleet->PublishSnapshot("empty", MakeReleaseSnapshot(1, Bucketization(3)));
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument) << refused;
  EXPECT_FALSE(fleet->ShardDown(0));
  const SnapshotRegistry registry = fleet->PublishedRegistry();
  EXPECT_EQ(registry.count({"empty", 1}), 0u);

  const Query query = RandomQuery(&rng, "gold");
  const auto answer = fleet->Ask(query);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  const Status verified = VerifyServedAnswers({{query, *answer}}, registry);
  EXPECT_TRUE(verified.ok()) << verified;
  Query empty = query;
  empty.tenant = "empty";
  EXPECT_EQ(fleet->Ask(empty).status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(fleet->ShutdownAll().ok());
}

TEST(ShardFleetTest, InFlightWindowShedsWithResourceExhausted) {
  const uint64_t seed = TestSeed(20260822);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  ShardFleetOptions options = BaseOptions(1);
  options.max_in_flight_per_shard = 4;
  options.tweak_shard = [](size_t, ShardServerOptions* shard) {
    shard->test_stall_queries_ms = 200;  // hold queries so the window fills
  };
  auto fleet_or = ShardFleet::Start(options);
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  std::unique_ptr<ShardFleet> fleet = std::move(fleet_or).value();
  ASSERT_TRUE(fleet->PublishSnapshot("gold", RandomSnapshot(&rng, 1)).ok());

  Query query;
  query.tenant = "gold";
  query.kind = QueryKind::kDisclosure;
  query.k = 1;
  std::vector<std::future<StatusOr<QueryAnswer>>> accepted;
  size_t shed = 0;
  for (size_t i = 0; i < 16; ++i) {
    auto submitted = fleet->Submit(query);
    if (submitted.ok()) {
      accepted.push_back(std::move(submitted).value());
    } else {
      EXPECT_EQ(submitted.status().code(), StatusCode::kResourceExhausted)
          << submitted.status().ToString();
      ++shed;
    }
  }
  EXPECT_LE(accepted.size(), 4u);  // never more than the window
  EXPECT_GT(shed, 0u);
  for (auto& future : accepted) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(30)),
              std::future_status::ready);
    const auto answer = future.get();
    EXPECT_TRUE(answer.ok()) << answer.status().ToString();
  }
  // Window slots freed: the next submit is admitted again.
  EXPECT_TRUE(fleet->Submit(query).ok());
  EXPECT_TRUE(fleet->ShutdownAll().ok());
}

TEST(ShardFleetTest, PingReportsPublishesTenantsAndAnsweredQueries) {
  const uint64_t seed = TestSeed(20260823);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  auto fleet_or = ShardFleet::Start(BaseOptions(2));
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  std::unique_ptr<ShardFleet> fleet = std::move(fleet_or).value();

  const std::vector<std::string> tenants = {"gold", "std", "free"};
  for (const std::string& tenant : tenants) {
    ASSERT_TRUE(fleet->PublishSnapshot(tenant, RandomSnapshot(&rng, 1)).ok());
    Query query;
    query.tenant = tenant;
    query.kind = QueryKind::kDisclosure;
    query.k = 2;
    ASSERT_TRUE(fleet->Ask(query).ok());
  }

  uint64_t publishes = 0, tenant_count = 0, answered = 0;
  for (size_t shard = 0; shard < fleet->num_shards(); ++shard) {
    const auto stats = fleet->PingShard(shard);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    publishes += stats->publishes;
    tenant_count += stats->tenants;
    answered += stats->answered;
  }
  EXPECT_EQ(publishes, tenants.size());
  EXPECT_EQ(tenant_count, tenants.size());
  EXPECT_EQ(answered, tenants.size());
  EXPECT_TRUE(fleet->ShutdownAll().ok());
}

TEST(ShardFleetTest, ShutdownAllStopsServingAndRestartRecovers) {
  const uint64_t seed = TestSeed(20260824);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  auto fleet_or = ShardFleet::Start(BaseOptions(2));
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  std::unique_ptr<ShardFleet> fleet = std::move(fleet_or).value();
  const auto snapshot = RandomSnapshot(&rng, 1);
  ASSERT_TRUE(fleet->PublishSnapshot("gold", snapshot).ok());

  ASSERT_TRUE(fleet->ShutdownAll().ok());
  for (size_t shard = 0; shard < fleet->num_shards(); ++shard) {
    EXPECT_TRUE(fleet->ShardDown(shard));
  }
  Query query;
  query.tenant = "gold";
  query.kind = QueryKind::kDisclosure;
  EXPECT_FALSE(fleet->Submit(query).ok());  // down => fail fast, no hang

  // Restarting a live shard is a caller error; restarting a down one
  // brings a fresh (empty, in-memory) shard back on a new link.
  for (size_t shard = 0; shard < fleet->num_shards(); ++shard) {
    ASSERT_TRUE(fleet->RestartShard(shard).ok());
    EXPECT_FALSE(fleet->ShardDown(shard));
    EXPECT_EQ(fleet->RestartShard(shard).code(),
              StatusCode::kFailedPrecondition);
  }
  // The in-memory shard forgot the tenant; re-adopting the same snapshot
  // (same sequence, same bytes) restores service.
  ASSERT_TRUE(fleet->PublishSnapshot("gold", snapshot).ok());
  query.k = 1;
  const auto answer = fleet->Ask(query);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  const Status verified =
      VerifyServedAnswers({{query, *answer}}, fleet->PublishedRegistry());
  EXPECT_TRUE(verified.ok()) << verified;
  EXPECT_TRUE(fleet->ShutdownAll().ok());
}

TEST(ShardFleetTest, ShutdownAllAnswersEveryAdmittedQueryAndReapsEveryShard) {
  // ShutdownAll closes the fleet's end of each link while the shards still
  // stall on queries sent before it: each shard reads them, answers every
  // one before it exits, and is reaped.
  const uint64_t seed = TestSeed(20260827);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  ShardFleetOptions options = BaseOptions(2);
  options.tweak_shard = [](size_t, ShardServerOptions* shard) {
    shard->test_stall_queries_ms = 50;
  };
  auto fleet_or = ShardFleet::Start(options);
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  std::unique_ptr<ShardFleet> fleet = std::move(fleet_or).value();

  // One tenant per shard, so both shards hold queries at the stop.
  std::vector<std::string> tenants(fleet->num_shards());
  for (size_t i = 0; tenants[0].empty() || tenants[1].empty(); ++i) {
    const std::string tenant = "tenant-" + std::to_string(i);
    std::string& slot = tenants[fleet->ShardOf(tenant)];
    if (slot.empty()) slot = tenant;
  }
  for (const std::string& tenant : tenants) {
    ASSERT_TRUE(fleet->PublishSnapshot(tenant, RandomSnapshot(&rng, 1)).ok());
  }
  std::vector<std::pair<Query, std::future<StatusOr<QueryAnswer>>>> submitted;
  for (size_t i = 0; i < 4; ++i) {
    const Query query = RandomQuery(&rng, tenants[i % tenants.size()]);
    auto future = fleet->Submit(query);
    ASSERT_TRUE(future.ok()) << future.status().ToString();
    submitted.emplace_back(query, std::move(future).value());
  }
  ASSERT_TRUE(fleet->ShutdownAll().ok());

  std::vector<ServedAnswer> served;
  for (auto& [query, future] : submitted) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const auto answer = future.get();
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    served.push_back({query, *answer});
  }
  const Status verified =
      VerifyServedAnswers(served, fleet->PublishedRegistry());
  EXPECT_TRUE(verified.ok()) << verified;
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

TEST(ShardFleetTest, FailedStartReapsEveryForkedShard) {
  // Start forks all three shards before pinging any. The middle one
  // cannot open its store (the parent of its directory does not exist)
  // and exits, so Start fails after shard 0 answered and before shard 2
  // was pinged: the fleet must reap all three.
  ScopedTempDir dir;
  ShardFleetOptions options = BaseOptions(3);
  options.tweak_shard = [&](size_t shard, ShardServerOptions* shard_options) {
    if (shard == 1) shard_options->durable_dir = dir.path() + "/none/store";
  };
  auto fleet_or = ShardFleet::Start(options);
  EXPECT_EQ(fleet_or.status().code(), StatusCode::kUnavailable)
      << fleet_or.status().ToString();
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

// The body of ShardsExitWhenTheirFleetDies, run in a helper process that
// becomes a child subreaper (which acts on the helper only): it forks a
// driver that starts a 2-shard fleet and dies by SIGKILL once Start has
// returned OK, so the orphaned shards become the helper's children. Exit
// codes: 0 when both shards exit within 30 s; 13 when the driver never
// reported a started fleet; 20 + n when only n shards exited in time,
// after the rest were SIGKILLed and reaped.
int ReapTheShardsOfAKilledFleet() {
  if (::prctl(PR_SET_CHILD_SUBREAPER, 1) != 0) return 10;
  int started[2];
  if (::pipe(started) != 0) return 11;
  const StatusOr<pid_t> driver = SpawnProcess([&]() {
    ::close(started[0]);
    ::setpgid(0, 0);  // the shards join the driver's process group
    auto fleet = ShardFleet::Start(BaseOptions(2));
    if (!fleet.ok()) return 1;
    const char byte = 1;
    if (::write(started[1], &byte, 1) != 1) return 2;
    ::raise(SIGKILL);  // no ShutdownAll, no ~ShardFleet
    return 3;
  });
  if (!driver.ok()) return 12;
  ::close(started[1]);
  char byte = 0;
  const bool fleet_started = ::read(started[0], &byte, 1) == 1;
  if (!WaitProcess(*driver).ok() || !fleet_started) return 13;

  // SIGCHLD stays pending while blocked, so sigtimedwait wakes for every
  // shard exit after the first waitpid, and waitpid finds any before it.
  sigset_t child_exited;
  sigemptyset(&child_exited);
  sigaddset(&child_exited, SIGCHLD);
  ::sigprocmask(SIG_BLOCK, &child_exited, nullptr);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  int reaped = 0;
  while (reaped < 2) {
    const pid_t pid = ::waitpid(-1, nullptr, WNOHANG);
    if (pid > 0) {
      ++reaped;
      continue;
    }
    const auto left = deadline - std::chrono::steady_clock::now();
    if (pid < 0 || left <= std::chrono::steady_clock::duration::zero()) break;
    const long long ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(left).count();
    const timespec timeout = {static_cast<time_t>(ns / 1000000000),
                              static_cast<long>(ns % 1000000000)};
    ::sigtimedwait(&child_exited, nullptr, &timeout);
  }
  if (reaped == 2) return 0;
  ::kill(-*driver, SIGKILL);  // whatever is left of the driver's group
  while (::waitpid(-1, nullptr, 0) > 0) {
  }
  return 20 + reaped;
}

TEST(ShardFleetTest, ShardsExitWhenTheirFleetDies) {
  // A shard serves one link and exits when it closes, so a fleet process
  // that dies without ShutdownAll leaves no shard running.
  const StatusOr<pid_t> helper = SpawnProcess(ReapTheShardsOfAKilledFleet);
  ASSERT_TRUE(helper.ok()) << helper.status().ToString();
  const StatusOr<ProcessExit> helper_exit = WaitProcess(*helper);
  ASSERT_TRUE(helper_exit.ok()) << helper_exit.status().ToString();
  EXPECT_TRUE(helper_exit->exited);
  EXPECT_EQ(helper_exit->exit_code, 0)
      << "13: the fleet never started; 20 + n: only n of 2 shards exited "
         "within 30 s of their fleet's SIGKILL";
}

// An in-process ShardServer: Serve() runs on a thread of this process and
// the test holds the other end of the server's socket pair, speaking the
// wire protocol on it, so ASan and TSan see the shard's Serve thread and
// the router completions that write the responses (the fleet tests fork
// their shards out of their sight).
class ShardServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ends = UnixSocket::Pair();
    ASSERT_TRUE(ends.ok()) << ends.status().ToString();
    client_ = std::move(ends->first);
    auto server = ShardServer::Create(ShardServerOptions(),
                                      std::move(ends->second));
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).value();
    serve_ = std::async(std::launch::async, [this] { server_->Serve(); });
  }

  void TearDown() override { StopAndDestroyServer(); }

  /// Stop() must make Serve() return; then the server is destroyed,
  /// whatever completions are still pending in its router.
  void StopAndDestroyServer() {
    if (server_ == nullptr) return;
    server_->Stop();
    serve_.get();
    server_.reset();
  }

  /// Sends `count` seeded queries for `tenant` on `client`, each under a
  /// fresh id; returns id -> query.
  std::map<uint64_t, Query> SendBurst(UnixSocket* client, Rng* rng,
                                      const std::string& tenant,
                                      size_t count) {
    std::map<uint64_t, Query> sent;
    for (size_t i = 0; i < count; ++i) {
      WireQueryRequest request;
      request.id = next_id_++;
      request.query = RandomQuery(rng, tenant);
      const Status sent_frame = SendFrame(client, WireType::kQueryRequest,
                                          EncodeQueryRequest(request));
      EXPECT_TRUE(sent_frame.ok()) << sent_frame.ToString();
      sent.emplace(request.id, request.query);
    }
    return sent;
  }

  /// Reads one response per query in `sent` through the client's
  /// `reader`, in whatever order the shard answers, and verifies each
  /// against `snapshot`, published as tenant "gold".
  void ExpectAnswered(FrameReader* reader,
                      const std::map<uint64_t, Query>& sent,
                      std::shared_ptr<const ReleaseSnapshot> snapshot) {
    std::set<uint64_t> answered;
    std::vector<ServedAnswer> served;
    for (size_t i = 0; i < sent.size(); ++i) {
      StatusOr<WireFrame> frame = reader->Next();
      ASSERT_TRUE(frame.ok()) << frame.status().ToString();
      ASSERT_EQ(frame->type, WireType::kQueryResponse);
      StatusOr<WireQueryResponse> response =
          DecodeQueryResponse(frame->payload);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      const auto query = sent.find(response->id);
      ASSERT_NE(query, sent.end()) << "response to unknown id " << response->id;
      ASSERT_TRUE(answered.insert(response->id).second)
          << "id " << response->id << " answered twice";
      ASSERT_TRUE(response->status.ok()) << response->status.ToString();
      served.push_back({query->second, response->answer});
    }
    const uint64_t sequence = snapshot->sequence;
    const Status verified = VerifyServedAnswers(
        served, {{{"gold", sequence}, std::move(snapshot)}});
    EXPECT_TRUE(verified.ok()) << verified;
  }

  UnixSocket client_;
  std::unique_ptr<ShardServer> server_;
  std::future<void> serve_;
  uint64_t next_id_ = 1;
};

TEST_F(ShardServerTest, AnswersABurstMatchedByIdBitIdentically) {
  const uint64_t seed = TestSeed(20260825);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  const auto snapshot = RandomSnapshot(&rng, 1);
  ASSERT_TRUE(server_->engine()->PublishSnapshot("gold", snapshot).ok());
  FrameReader reader(&client_);

  const auto sent = SendBurst(&client_, &rng, "gold", 64 + rng.NextBelow(64));
  ExpectAnswered(&reader, sent, snapshot);
}

TEST_F(ShardServerTest, StopsAndDestroysWithCompletionsPending) {
  const uint64_t seed = TestSeed(20260826);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  const auto snapshot = RandomSnapshot(&rng, 1);
  ASSERT_TRUE(server_->engine()->PublishSnapshot("gold", snapshot).ok());
  FrameReader reader(&client_);
  const auto first = SendBurst(&client_, &rng, "gold", 1 + rng.NextBelow(64));
  ExpectAnswered(&reader, first, snapshot);

  // A second burst the client never reads: its completions write to a
  // closed peer, or are still queued when the server stops and goes away.
  SendBurst(&client_, &rng, "gold", 256 + rng.NextBelow(256));
  client_.Close();
  StopAndDestroyServer();
}

TEST_F(ShardServerTest, ServeReturnsWhenThePeerCloses) {
  // The shard's only client is its fleet: once the fleet's end is closed,
  // Serve() returns without Stop(), and a forked shard exits.
  client_.Close();
  EXPECT_EQ(serve_.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
}

}  // namespace
}  // namespace cksafe
