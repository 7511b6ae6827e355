// serve/: snapshot stores, the batching QueryRouter, and the ServingEngine.
//
// The load-bearing assertions are the bit-identity ones: every answer the
// router produces must equal, field for field with exact `==`, the
// ReferenceAnswer of a fresh synchronous DisclosureAnalyzer over the
// answering snapshot, for all four query kinds. Coalescing is asserted
// through the sweep counters: one batch of mixed queries must cost one
// profile sweep (plus one per-bucket sweep per distinct audited budget).

#include <deque>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cksafe/search/publisher.h"
#include "cksafe/serve/query_router.h"
#include "cksafe/serve/reference_answer.h"
#include "cksafe/serve/release_snapshot.h"
#include "cksafe/serve/serving_engine.h"
#include "cksafe/serve/snapshot_store.h"
#include "testing_util.h"

namespace cksafe {
namespace {

using testing::MakeBuckets;
using testing::MakeHospitalBucketization;
using testing::MakeHospitalTable;
using testing::RandomHistograms;
using testing::SyntheticBuckets;

std::shared_ptr<const ReleaseSnapshot> HospitalSnapshot(
    const Table& table, uint64_t sequence) {
  return MakeReleaseSnapshot(sequence, MakeHospitalBucketization(table));
}

TEST(SnapshotStoreTest, PublishSwapsAndOldReadersKeepTheirView) {
  const Table table = MakeHospitalTable();
  SnapshotStore store;
  EXPECT_EQ(store.Current(), nullptr);
  store.Publish(HospitalSnapshot(table, 1));
  const auto first = store.Current();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->sequence, 1u);
  store.Publish(HospitalSnapshot(table, 2));
  EXPECT_EQ(store.Current()->sequence, 2u);
  // The reader's pinned snapshot is unaffected by the swap.
  EXPECT_EQ(first->sequence, 1u);
  EXPECT_EQ(store.swaps(), 2u);
}

TEST(ServingDirectoryTest, GetOrAddIsStableAndFindReportsUnknown) {
  ServingDirectory directory;
  SnapshotStore* store = directory.GetOrAddTenant("gold");
  EXPECT_EQ(directory.GetOrAddTenant("gold"), store);
  EXPECT_EQ(directory.Find("gold"), store);
  EXPECT_EQ(directory.Find("nobody"), nullptr);
  EXPECT_EQ(directory.tenants(), std::vector<std::string>{"gold"});
}

class QueryRouterTest : public ::testing::Test {
 protected:
  QueryRouter::Options ManualOptions(size_t capacity = 64) {
    QueryRouter::Options options;
    options.queue_capacity = capacity;
    options.start_worker = false;
    return options;
  }
};

/// Submits through the future form or the callback form of
/// QueryRouter::Submit, so one test body checks both. The callback form
/// records, for every submit, how often its callback ran, on which thread
/// and with which Status.
class FormSubmitter {
 public:
  FormSubmitter(QueryRouter* router, bool callback_form)
      : router_(router), callback_form_(callback_form) {}

  /// The admission Status; accepted queries are numbered in order.
  Status Submit(Query query) {
    if (!callback_form_) {
      auto submitted = router_->Submit(std::move(query));
      if (!submitted.ok()) return submitted.status();
      futures_.push_back(std::move(submitted).value());
      return Status::OK();
    }
    Run& run = runs_.emplace_back();
    const Status admitted =
        router_->Submit(std::move(query), [&run](StatusOr<QueryAnswer> answer) {
          ++run.count;
          run.thread = std::this_thread::get_id();
          run.status = answer.status();
        });
    if (admitted.ok()) accepted_.push_back(&run);
    return admitted;
  }

  /// The Status accepted query `i` resolved with. In the callback form,
  /// its callback must have run exactly once, on this thread (the one
  /// calling DrainOnce or Stop).
  StatusCode Resolved(size_t i) {
    if (!callback_form_) return futures_[i].get().status().code();
    EXPECT_EQ(accepted_[i]->count, 1);
    EXPECT_EQ(accepted_[i]->thread, std::this_thread::get_id());
    return accepted_[i]->status.code();
  }

  /// Callbacks run by rejected submits (must stay 0).
  int RejectedRuns() const {
    int runs = 0;
    for (const Run& run : runs_) runs += run.count;
    for (const Run* run : accepted_) runs -= run->count;
    return runs;
  }

 private:
  struct Run {
    int count = 0;
    std::thread::id thread;
    Status status;
  };
  QueryRouter* router_;
  const bool callback_form_;
  std::vector<std::future<StatusOr<QueryAnswer>>> futures_;
  std::deque<Run> runs_;  // stable addresses: callbacks point into it
  std::vector<Run*> accepted_;
};

const char* FormName(bool callback_form) {
  return callback_form ? "callback form" : "future form";
}

TEST_F(QueryRouterTest, AdmissionValidation) {
  for (const bool callback_form : {false, true}) {
    SCOPED_TRACE(FormName(callback_form));
    ServingDirectory directory;
    QueryRouter router(&directory, ManualOptions());
    FormSubmitter submitter(&router, callback_form);
    Query absurd;
    absurd.tenant = "t";
    absurd.k = Minimize2Forward::kMaxAnalysisBudget + 1;
    EXPECT_EQ(submitter.Submit(absurd).code(), StatusCode::kOutOfRange);
    Query bad_c;
    bad_c.tenant = "t";
    bad_c.kind = QueryKind::kIsCkSafe;
    bad_c.c = 0.0;
    EXPECT_EQ(submitter.Submit(bad_c).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(router.stats().submitted, 0u);
    EXPECT_EQ(router.DrainOnce(), 0u);
    router.Stop();
    EXPECT_EQ(submitter.RejectedRuns(), 0);
  }
}

TEST_F(QueryRouterTest, BackpressureWhenQueueIsFull) {
  for (const bool callback_form : {false, true}) {
    SCOPED_TRACE(FormName(callback_form));
    ServingDirectory directory;
    QueryRouter router(&directory, ManualOptions(/*capacity=*/2));
    FormSubmitter submitter(&router, callback_form);
    Query query;
    query.tenant = "t";
    ASSERT_TRUE(submitter.Submit(query).ok());
    ASSERT_TRUE(submitter.Submit(query).ok());
    EXPECT_EQ(submitter.Submit(query).code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(router.stats().rejected, 1u);
    // Draining frees capacity; the pending queries resolve (as errors —
    // the tenant is unknown — but resolve).
    EXPECT_EQ(router.DrainOnce(), 2u);
    EXPECT_EQ(submitter.Resolved(0), StatusCode::kNotFound);
    EXPECT_EQ(submitter.Resolved(1), StatusCode::kNotFound);
    // A query still queued at Stop() resolves with FailedPrecondition.
    ASSERT_TRUE(submitter.Submit(query).ok());
    router.Stop();
    EXPECT_EQ(submitter.Resolved(2), StatusCode::kFailedPrecondition);
    EXPECT_EQ(submitter.RejectedRuns(), 0);
  }
}

TEST_F(QueryRouterTest, UnknownTenantAndUnpublishedTenantErrors) {
  for (const bool callback_form : {false, true}) {
    SCOPED_TRACE(FormName(callback_form));
    ServingDirectory directory;
    directory.GetOrAddTenant("registered");
    QueryRouter router(&directory, ManualOptions());
    FormSubmitter submitter(&router, callback_form);
    Query unknown;
    unknown.tenant = "ghost";
    Query unpublished;
    unpublished.tenant = "registered";
    ASSERT_TRUE(submitter.Submit(unknown).ok());
    ASSERT_TRUE(submitter.Submit(unpublished).ok());
    EXPECT_EQ(router.DrainOnce(), 2u);
    EXPECT_EQ(submitter.Resolved(0), StatusCode::kNotFound);
    EXPECT_EQ(submitter.Resolved(1), StatusCode::kFailedPrecondition);
  }
}

TEST_F(QueryRouterTest, BatchCoalescesToOneProfileSweepAndIsBitIdentical) {
  const Table table = MakeHospitalTable();
  ServingDirectory directory;
  const auto snapshot = HospitalSnapshot(table, 1);
  directory.GetOrAddTenant("t")->Publish(snapshot);
  QueryRouter router(&directory, ManualOptions());

  // A mixed batch: safety verdicts, disclosures, curve points, audits.
  std::vector<Query> queries;
  for (size_t k = 0; k <= 4; ++k) {
    Query safe;
    safe.tenant = "t";
    safe.kind = QueryKind::kIsCkSafe;
    safe.c = 0.6;
    safe.k = k;
    queries.push_back(safe);
    Query disclosure;
    disclosure.tenant = "t";
    disclosure.kind = QueryKind::kDisclosure;
    disclosure.k = k;
    queries.push_back(disclosure);
    Query profile;
    profile.tenant = "t";
    profile.kind = QueryKind::kProfileAtK;
    profile.k = k;
    queries.push_back(profile);
  }
  Query audit;
  audit.tenant = "t";
  audit.kind = QueryKind::kPerBucket;
  audit.k = 2;
  for (size_t bucket = 0; bucket < 2; ++bucket) {
    audit.bucket = bucket;
    queries.push_back(audit);
  }

  std::vector<std::future<StatusOr<QueryAnswer>>> futures;
  for (const Query& query : queries) {
    auto submitted = router.Submit(query);
    ASSERT_TRUE(submitted.ok()) << submitted.status();
    futures.push_back(std::move(submitted).value());
  }
  EXPECT_EQ(router.DrainOnce(), queries.size());

  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.profile_sweeps, 1u) << "batch must coalesce to ONE sweep";
  EXPECT_EQ(stats.per_bucket_sweeps, 1u) << "one audited budget, one sweep";
  EXPECT_EQ(stats.answered, queries.size());

  // Bit-identity against a fresh synchronous analyzer.
  std::vector<ServedAnswer> served;
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto answer = futures[i].get();
    ASSERT_TRUE(answer.ok()) << answer.status();
    served.push_back({queries[i], *answer});
  }
  const Status verified = VerifyServedAnswers(served, {{{"t", 1}, snapshot}});
  EXPECT_TRUE(verified.ok()) << verified;
}

TEST_F(QueryRouterTest, CachedProfileServesRepeatBatchesWithoutResweeping) {
  const Table table = MakeHospitalTable();
  ServingDirectory directory;
  SnapshotStore* store = directory.GetOrAddTenant("t");
  store->Publish(HospitalSnapshot(table, 1));
  QueryRouter router(&directory, ManualOptions());

  Query query;
  query.tenant = "t";
  query.kind = QueryKind::kDisclosure;
  query.k = 3;
  auto first = router.Submit(query);
  ASSERT_TRUE(first.ok());
  router.DrainOnce();
  auto second = router.Submit(query);
  ASSERT_TRUE(second.ok());
  router.DrainOnce();
  EXPECT_EQ(router.stats().profile_sweeps, 1u)
      << "unchanged snapshot must be served from the cached profile";

  // Widening the budget re-sweeps once; the wider profile then serves both.
  query.k = 5;
  auto wider = router.Submit(query);
  ASSERT_TRUE(wider.ok());
  router.DrainOnce();
  EXPECT_EQ(router.stats().profile_sweeps, 2u);

  // A snapshot swap invalidates the cache.
  store->Publish(HospitalSnapshot(table, 2));
  auto after_swap = router.Submit(query);
  ASSERT_TRUE(after_swap.ok());
  router.DrainOnce();
  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.profile_sweeps, 3u);
  EXPECT_EQ(stats.snapshot_reloads, 2u);
  EXPECT_EQ(after_swap.value().get()->snapshot_sequence, 2u);
}

TEST_F(QueryRouterTest, ProfileWidthSurvivesSnapshotReload) {
  // Regression (PR 7): a snapshot swap invalidates the cached profile, and
  // the next batch used to recompute at exactly its own maximum budget —
  // narrowing the cache, so a tenant alternating narrow and wide queries
  // paid a second sweep after every swap. The recomputed profile must come
  // back at the tenant's high-water budget (widening is answer-neutral:
  // column k of a wider sweep is bit-identical to a dedicated budget-k
  // sweep), making the post-swap wide query free.
  const Table table = MakeHospitalTable();
  ServingDirectory directory;
  SnapshotStore* store = directory.GetOrAddTenant("t");
  const auto snapshot1 = HospitalSnapshot(table, 1);
  store->Publish(snapshot1);
  QueryRouter router(&directory, ManualOptions());

  Query wide;
  wide.tenant = "t";
  wide.kind = QueryKind::kDisclosure;
  wide.k = 5;
  auto warmup = router.Submit(wide);
  ASSERT_TRUE(warmup.ok());
  router.DrainOnce();
  ASSERT_EQ(router.stats().profile_sweeps, 1u);

  // Swap, then serve a NARROW query first — the case that used to narrow
  // the cache.
  const auto snapshot2 = HospitalSnapshot(table, 2);
  store->Publish(snapshot2);
  Query narrow = wide;
  narrow.k = 2;
  auto post_swap_narrow = router.Submit(narrow);
  ASSERT_TRUE(post_swap_narrow.ok());
  router.DrainOnce();
  ASSERT_EQ(router.stats().profile_sweeps, 2u)
      << "the reload itself must cost exactly one fresh sweep";

  // The wide query now rides the already-wide cached profile: the pinned
  // count stays at 2 (it was 3 before the fix).
  auto post_swap_wide = router.Submit(wide);
  ASSERT_TRUE(post_swap_wide.ok());
  router.DrainOnce();
  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.profile_sweeps, 2u)
      << "profile cache narrowed across the snapshot reload";
  EXPECT_EQ(stats.snapshot_reloads, 2u);  // initial load + the swap

  // And the answers are still the fresh-analyzer answers for snapshot 2.
  const auto narrow_answer = post_swap_narrow.value().get();
  const auto wide_answer = post_swap_wide.value().get();
  ASSERT_TRUE(narrow_answer.ok() && wide_answer.ok());
  const Status verified =
      VerifyServedAnswers({{narrow, *narrow_answer}, {wide, *wide_answer}},
                          {{{"t", 2}, snapshot2}});
  EXPECT_TRUE(verified.ok()) << verified;
}

TEST_F(QueryRouterTest, PerBucketOutOfRangeIsAPerQueryError) {
  const Table table = MakeHospitalTable();
  ServingDirectory directory;
  directory.GetOrAddTenant("t")->Publish(HospitalSnapshot(table, 1));
  QueryRouter router(&directory, ManualOptions());
  Query good;
  good.tenant = "t";
  good.kind = QueryKind::kPerBucket;
  good.k = 1;
  good.bucket = 0;
  Query bad = good;
  bad.bucket = 99;
  auto good_future = router.Submit(good);
  auto bad_future = router.Submit(bad);
  ASSERT_TRUE(good_future.ok() && bad_future.ok());
  router.DrainOnce();
  EXPECT_TRUE(good_future.value().get().ok())
      << "a bad query must not poison its batch";
  EXPECT_EQ(bad_future.value().get().status().code(),
            StatusCode::kOutOfRange);
}

TEST_F(QueryRouterTest, WorkerThreadModeAnswersIdenticallyToFresh) {
  Rng rng(0x5e7e5e7eULL);
  const SyntheticBuckets synthetic =
      MakeBuckets(RandomHistograms(&rng, 10, 4, 6), 4);
  ServingDirectory directory;
  const auto snapshot = MakeReleaseSnapshot(1, synthetic.bucketization);
  directory.GetOrAddTenant("t")->Publish(snapshot);
  QueryRouter router(&directory);  // worker thread mode
  std::vector<ServedAnswer> served;
  for (size_t k = 0; k <= 5; ++k) {
    Query query;
    query.tenant = "t";
    query.kind = QueryKind::kDisclosure;
    query.k = k;
    const auto answer = router.Ask(query);
    ASSERT_TRUE(answer.ok()) << answer.status();
    served.push_back({query, *answer});
  }
  router.Stop();
  const Status verified = VerifyServedAnswers(served, {{{"t", 1}, snapshot}});
  EXPECT_TRUE(verified.ok()) << verified;
}

TEST(ServingEngineTest, PublishesFromThePublisherPipelineAndServes) {
  const Table table = MakeHospitalTable();
  PublisherOptions options;
  options.c = 0.95;
  options.k = 1;
  Publisher publisher(options);
  std::vector<QuasiIdentifier> qis;
  for (size_t column : {size_t{0}, size_t{2}}) {
    qis.push_back(QuasiIdentifier{
        column, MakeDefaultHierarchy(table.schema().attribute(column))});
  }
  const auto release =
      publisher.Publish(table, qis, testing::kHospitalSensitiveColumn);
  ASSERT_TRUE(release.ok()) << release.status();

  ServingEngine engine;
  const std::vector<TenantRelease> round = {{"hospital", {}, release}};
  const auto published = engine.PublishTenantReleases(round, table.num_rows());
  ASSERT_TRUE(published.ok()) << published.status();
  ASSERT_EQ(published->size(), 1u);
  const auto& snapshot = published->front();
  EXPECT_EQ(snapshot->sequence, 1u);
  EXPECT_EQ(snapshot->num_rows, table.num_rows());

  Query query;
  query.tenant = "hospital";
  query.kind = QueryKind::kIsCkSafe;
  query.c = options.c;
  query.k = options.k;
  const auto answer = engine.Ask(query);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_TRUE(answer->safe) << "a published release must satisfy its policy";
  const Status verified =
      VerifyServedAnswers({{query, *answer}}, {{{"hospital", 1}, snapshot}});
  EXPECT_TRUE(verified.ok()) << verified;

  // Republishing bumps the sequence; the router serves the new snapshot.
  const auto next = engine.PublishTenantReleases(round, table.num_rows());
  ASSERT_TRUE(next.ok()) << next.status();
  ASSERT_EQ(next->size(), 1u);
  EXPECT_EQ(next->front()->sequence, 2u);
  const auto answer2 = engine.Ask(query);
  ASSERT_TRUE(answer2.ok());
  EXPECT_EQ(answer2->snapshot_sequence, 2u);
}

TEST(ServingEngineTest, RefusesAnEmptySnapshotAndKeepsServing) {
  // No analyzer can answer over a snapshot with no buckets: adopting one
  // would abort the process at the tenant's first query.
  const Table table = MakeHospitalTable();
  ServingEngine engine;
  const auto gold = HospitalSnapshot(table, 1);
  ASSERT_TRUE(engine.PublishSnapshot("gold", gold).ok());
  const Status refused =
      engine.PublishSnapshot("empty", MakeReleaseSnapshot(1, Bucketization(3)));
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument) << refused;
  EXPECT_EQ(engine.directory()->Find("empty"), nullptr);

  Query query;
  query.tenant = "gold";
  query.kind = QueryKind::kProfileAtK;
  query.k = 2;
  const auto answer = engine.Ask(query);
  ASSERT_TRUE(answer.ok()) << answer.status();
  const Status verified =
      VerifyServedAnswers({{query, *answer}}, {{{"gold", 1}, gold}});
  EXPECT_TRUE(verified.ok()) << verified;
  query.tenant = "empty";
  EXPECT_EQ(engine.Ask(query).status().code(), StatusCode::kNotFound);
}

using PublishHistory =
    std::vector<std::pair<std::string, std::shared_ptr<const ReleaseSnapshot>>>;

StatusOr<PublishedRelease> HospitalRelease(const Table& table,
                                           LatticeNode node) {
  return PublishedRelease{std::move(node), MakeHospitalBucketization(table),
                          {}, {}, {}, {}, {}};
}

std::vector<uintmax_t> StoreFileSizes(const std::string& dir) {
  return {std::filesystem::file_size(dir + "/MANIFEST"),
          std::filesystem::file_size(dir + "/segments.dat")};
}

// Rounds through PublishTenantReleases on `engine`: released tenants
// advance by one sequence, an unsatisfiable tenant keeps its snapshot, and
// a round naming a tenant twice publishes nothing (on a durable engine,
// `dir` non-empty, it also writes no byte). `*history` receives every
// published (tenant, snapshot) in commit order.
void CheckPublishRoundContract(ServingEngine* engine, const std::string& dir,
                               PublishHistory* history) {
  const Table table = MakeHospitalTable();
  auto slot = [&](const std::string& tenant) {
    return engine->directory()->Find(tenant)->Current();
  };
  const Status unsatisfiable = Status::NotFound("no safe node");

  const std::vector<TenantRelease> first = {
      {"alpha", {}, HospitalRelease(table, {0, 0})},
      {"beta", {}, HospitalRelease(table, {1, 0})},
      {"gamma", {}, HospitalRelease(table, {0, 1})}};
  const auto seeded = engine->PublishTenantReleases(first, 10);
  ASSERT_TRUE(seeded.ok()) << seeded.status();
  ASSERT_EQ(seeded->size(), 3u);
  const std::shared_ptr<const ReleaseSnapshot> beta_before = slot("beta");

  const std::vector<TenantRelease> round = {
      {"alpha", {}, HospitalRelease(table, {1, 1})},
      {"beta", {}, unsatisfiable},
      {"gamma", {}, HospitalRelease(table, {1, 0})}};
  const auto published = engine->PublishTenantReleases(round, 10);
  ASSERT_TRUE(published.ok()) << published.status();
  ASSERT_EQ(published->size(), 2u);
  EXPECT_EQ((*published)[0]->sequence, 2u);
  EXPECT_EQ((*published)[0]->node, (LatticeNode{1, 1}));
  EXPECT_EQ((*published)[1]->sequence, 2u);
  EXPECT_EQ((*published)[1]->node, (LatticeNode{1, 0}));
  EXPECT_EQ(slot("alpha"), (*published)[0]);
  EXPECT_EQ(slot("gamma"), (*published)[1]);
  EXPECT_EQ(slot("beta"), beta_before) << "NotFound tenant must keep its snapshot";

  const std::vector<uintmax_t> sizes =
      dir.empty() ? std::vector<uintmax_t>{} : StoreFileSizes(dir);
  const std::vector<TenantRelease> twice = {
      {"alpha", {}, HospitalRelease(table, {0, 0})},
      {"gamma", {}, HospitalRelease(table, {0, 0})},
      {"alpha", {}, unsatisfiable}};
  const auto rejected = engine->PublishTenantReleases(twice, 10);
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(slot("alpha"), (*published)[0]);
  EXPECT_EQ(slot("gamma"), (*published)[1]);
  if (!dir.empty()) {
    EXPECT_EQ(StoreFileSizes(dir), sizes) << "a rejected round wrote bytes";
  }
  *history = {{"alpha", (*seeded)[0]},    {"beta", (*seeded)[1]},
              {"gamma", (*seeded)[2]},    {"alpha", (*published)[0]},
              {"gamma", (*published)[1]}};
}

TEST(ServingEngineTest, PublishTenantReleasesInMemory) {
  ServingEngine engine;
  PublishHistory history;
  CheckPublishRoundContract(&engine, "", &history);
}

TEST(ServingEngineTest, PublishTenantReleasesIsOneDurableGroup) {
  DurableStoreOptions options;
  options.dir = ::testing::TempDir() + "/cksafe_engine_round";
  options.profile_max_k = 2;
  std::filesystem::remove_all(options.dir);
  auto engine = ServingEngine::CreateDurable(options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  PublishHistory history;
  CheckPublishRoundContract(engine->get(), options.dir, &history);
  ASSERT_FALSE(HasFatalFailure());

  // A durable error swaps no tenant: the store already holds beta's next
  // sequence, so the group fails and alpha keeps its snapshot too.
  const Table table = MakeHospitalTable();
  history.emplace_back(
      "beta", MakeReleaseSnapshot(2, MakeHospitalBucketization(table)));
  ASSERT_TRUE((*engine)->durable_store()
                  ->AppendPublish("beta", *history.back().second)
                  .ok());
  const ServingDirectory* directory = (*engine)->directory();
  const auto alpha_before = directory->Find("alpha")->Current();
  const auto beta_before = directory->Find("beta")->Current();
  const std::vector<TenantRelease> round = {
      {"alpha", {}, HospitalRelease(table, {0, 0})},
      {"beta", {}, HospitalRelease(table, {0, 0})}};
  EXPECT_FALSE((*engine)->PublishTenantReleases(round, 10).ok());
  EXPECT_EQ(directory->Find("alpha")->Current(), alpha_before);
  EXPECT_EQ(directory->Find("beta")->Current(), beta_before);
  engine->reset();

  // The store reopens to every committed snapshot, bit for bit.
  auto reopened = DurableStore::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->records().size(), history.size());
  for (const auto& [tenant, snapshot] : history) {
    const auto loaded = (*reopened)->LoadSnapshot(tenant, snapshot->sequence);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_TRUE(SnapshotsBitIdentical(**loaded, *snapshot))
        << tenant << " sequence " << snapshot->sequence;
  }
  const auto report = (*reopened)->Verify();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->profiles_checked, history.size());
  reopened->reset();
  std::filesystem::remove_all(options.dir);
}

}  // namespace
}  // namespace cksafe
