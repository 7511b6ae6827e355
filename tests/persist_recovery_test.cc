// Crash-recovery torture for the durable store.
//
// The publish stream mixes single appends with group appends of 2-4
// tenants (one serving round). Every attack must recover to the exact
// committed prefix of commit order with bit-identical snapshots:
//
//   1. Truncation sweep — copy a healthy store, chop MANIFEST and/or
//      segments.dat at random byte offsets, reopen, and require the
//      longest valid publish prefix (contiguous sequences, every snapshot
//      bit-identical to what was published).
//   2. Kill-and-recover — fork a child writer that publishes through the
//      real group append with test_crash_after_bytes armed, so SIGKILL
//      lands mid-page, mid-record, wherever the byte threshold falls: at
//      random offsets, and at every group's segment end and manifest
//      record boundaries, where the recovered prefix is known exactly.
//   3. IO error mid-group — a forked writer whose file-size limit cuts a
//      group's segment pages must fail the group, wedge, and commit
//      nothing; the store reopens to the pre-group prefix.
//
// Groups and single appends must also write byte-identical files.

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cksafe/persist/durable_store.h"
#include "cksafe/persist/manifest.h"
#include "cksafe/serve/release_snapshot.h"
#include "cksafe/serve/snapshot_store.h"
#include "cksafe/util/page_io.h"
#include "testing_util.h"

namespace cksafe {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

// The ground-truth publish stream: what a tenant published at each
// sequence, regenerated deterministically from the seed so parent and
// forked child agree without shared memory.
struct PublishPlan {
  std::string tenant;
  std::shared_ptr<const ReleaseSnapshot> snapshot;
};

// One group append; a round of one is a single append.
using Round = std::vector<PublishPlan>;

// Even rounds are single appends, odd rounds groups of 2-4 distinct
// tenants.
std::vector<Round> MakePlan(uint64_t seed, size_t rounds) {
  Rng rng(seed);
  std::vector<std::string> tenants = {"alpha", "beta", "gamma", "delta"};
  std::map<std::string, uint64_t> next_seq;
  std::vector<Round> plan(rounds);
  for (size_t r = 0; r < rounds; ++r) {
    const size_t size = r % 2 == 0 ? 1 : 2 + rng.NextBelow(3);
    for (size_t i = 0; i < size; ++i) {
      // A partial Fisher-Yates shuffle keeps the round's tenants distinct.
      std::swap(tenants[i], tenants[i + rng.NextBelow(tenants.size() - i)]);
      const size_t domain = 2 + rng.NextBelow(4);
      const auto synthetic = testing::MakeBuckets(
          testing::RandomHistograms(&rng, 1 + rng.NextBelow(5), domain, 7),
          domain);
      const uint64_t seq = ++next_seq[tenants[i]];
      plan[r].push_back(
          {tenants[i], MakeReleaseSnapshot(seq, synthetic.bucketization)});
    }
  }
  return plan;
}

// The plan's publishes in commit order.
std::vector<PublishPlan> CommitOrder(const std::vector<Round>& plan) {
  std::vector<PublishPlan> order;
  for (const Round& round : plan) {
    order.insert(order.end(), round.begin(), round.end());
  }
  return order;
}

// Appends `round` as one group, minus the publishes the store already
// holds, so a writer can resume from any recovered prefix.
Status AppendRound(DurableStore* store, const Round& round) {
  std::vector<DurableStore::GroupEntry> pending;
  for (const PublishPlan& p : round) {
    if (store->LatestSequence(p.tenant) < p.snapshot->sequence) {
      pending.push_back({p.tenant, p.snapshot.get()});
    }
  }
  return store->AppendPublishGroup(pending);
}

Status WriteRounds(DurableStore* store, const std::vector<Round>& plan) {
  for (const Round& round : plan) {
    CKSAFE_RETURN_IF_ERROR(AppendRound(store, round));
  }
  return Status::OK();
}

// Reopens `dir` and checks the recovered store is the exact prefix of
// `plan`: recovered publish count in [0, plan.size()], per-tenant
// sequences contiguous from 1, and every recovered snapshot bit-identical
// to the published one. Returns the number of recovered publishes.
size_t CheckRecoveredPrefix(const std::string& dir,
                            const std::vector<PublishPlan>& plan) {
  DurableStoreOptions options;
  options.dir = dir;
  options.buffer_pool_pages = 3;  // tiny: recovery reads must pool-evict
  auto store = DurableStore::Open(options);
  EXPECT_TRUE(store.ok()) << store.status();
  if (!store.ok()) return 0;

  const size_t recovered = (*store)->recovery().records;
  EXPECT_LE(recovered, plan.size());
  // Recovery keeps a *prefix* of the commit order: exactly the first
  // `recovered` plan entries, nothing reordered, nothing skipped.
  std::map<std::string, uint64_t> latest;
  for (size_t i = 0; i < recovered; ++i) {
    const PublishPlan& expected = plan[i];
    latest[expected.tenant] = expected.snapshot->sequence;
    const auto loaded = (*store)->LoadSnapshot(expected.tenant,
                                               expected.snapshot->sequence);
    EXPECT_TRUE(loaded.ok()) << "publish " << i << ": " << loaded.status();
    if (loaded.ok()) {
      EXPECT_TRUE(SnapshotsBitIdentical(**loaded, *expected.snapshot))
          << "publish " << i << " of tenant " << expected.tenant;
    }
  }
  for (const auto& [tenant, seq] : latest) {
    EXPECT_EQ((*store)->LatestSequence(tenant), seq);
    const std::vector<uint64_t> seqs = (*store)->Sequences(tenant);
    for (size_t i = 0; i < seqs.size(); ++i) {
      EXPECT_EQ(seqs[i], i + 1) << "gap in tenant " << tenant;
    }
  }
  // Anything past the prefix must be gone.
  if (recovered < plan.size()) {
    const PublishPlan& lost = plan[recovered];
    EXPECT_FALSE(
        (*store)->LoadSnapshot(lost.tenant, lost.snapshot->sequence).ok());
  }
  // The truncated store must also pass its own offline audit...
  const auto report = (*store)->Verify();
  EXPECT_TRUE(report.ok()) << report.status();
  // ...and rehydrate a directory to the exact pre-crash latest snapshots.
  ServingDirectory directory;
  EXPECT_TRUE((*store)->RehydrateInto(&directory).ok());
  for (const auto& [tenant, seq] : latest) {
    const SnapshotStore* slot = directory.Find(tenant);
    EXPECT_NE(slot, nullptr);
    if (slot != nullptr) {
      EXPECT_EQ(slot->Current()->sequence, seq);
    }
  }
  return recovered;
}

uint64_t FileSize(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

void TruncateFile(const std::string& path, uint64_t size) {
  ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(size)), 0)
      << path << ": " << std::strerror(errno);
}

void CopyStore(const std::string& from, const std::string& to) {
  fs::remove_all(to);
  fs::create_directory(to);
  fs::copy(from + "/MANIFEST", to + "/MANIFEST");
  fs::copy(from + "/segments.dat", to + "/segments.dat");
}

// Opens a fresh store at `dir` and writes every round of `plan`.
void WriteStore(const std::string& dir, const std::vector<Round>& plan) {
  DurableStoreOptions options;
  options.dir = dir;
  auto store = DurableStore::Open(options);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE(WriteRounds(store->get(), plan).ok());
}

TEST(PersistRecoveryTest, TruncationSweepRecoversLongestValidPrefix) {
  const uint64_t seed = testing::TestSeed(20260811);
  SCOPED_TRACE(testing::SeedTrace(seed));
  const std::vector<Round> rounds = MakePlan(seed, 6);
  const std::vector<PublishPlan> plan = CommitOrder(rounds);

  const std::string golden = FreshDir("cksafe_trunc_golden");
  WriteStore(golden, rounds);
  const uint64_t manifest_size = FileSize(golden + "/MANIFEST");
  const uint64_t segments_size = FileSize(golden + "/segments.dat");
  ASSERT_GT(manifest_size, 0u);
  ASSERT_GT(segments_size, 0u);

  // Untouched copy recovers everything.
  const std::string copy = FreshDir("cksafe_trunc_copy");
  CopyStore(golden, copy);
  EXPECT_EQ(CheckRecoveredPrefix(copy, plan), plan.size());

  Rng rng(seed ^ 0x5eedULL);
  for (size_t iter = 0; iter < testing::TestIters(12); ++iter) {
    SCOPED_TRACE("truncation iteration " + std::to_string(iter));
    CopyStore(golden, copy);
    // Three crash shapes: torn manifest tail (segments intact), torn
    // segment tail (manifest intact — commit records now point past the
    // end), or both torn.
    const uint64_t shape = rng.NextBelow(3);
    if (shape == 0 || shape == 2) {
      TruncateFile(copy + "/MANIFEST", rng.NextBelow(manifest_size + 1));
    }
    if (shape == 1 || shape == 2) {
      TruncateFile(copy + "/segments.dat", rng.NextBelow(segments_size + 1));
    }
    CheckRecoveredPrefix(copy, plan);
  }
  // A targeted worst case: manifest fully intact but segments cut to a
  // page boundary mid-history — recovery must cut the manifest back too.
  CopyStore(golden, copy);
  TruncateFile(copy + "/segments.dat", segments_size / (2 * kPageSize) * kPageSize);
  const size_t kept = CheckRecoveredPrefix(copy, plan);
  EXPECT_LT(kept, plan.size());

  fs::remove_all(golden);
  fs::remove_all(copy);
}

TEST(PersistRecoveryTest, GroupsWriteTheSameBytesAsSingleAppends) {
  // One plan written round by round as groups, and publish by publish as
  // single appends (with disclosure riders, so snapshot blobs carry
  // them): both files must come out byte-identical.
  const uint64_t seed = testing::TestSeed(20260816);
  SCOPED_TRACE(testing::SeedTrace(seed));
  std::vector<Round> rounds = MakePlan(seed, 6);
  // Plus a round in which two tenants publish the same buckets, so the
  // second rider's tables all come from the group's shared cache.
  std::map<std::string, uint64_t> latest;
  for (const PublishPlan& p : CommitOrder(rounds)) {
    latest[p.tenant] = p.snapshot->sequence;
  }
  Rng rng(seed + 1);
  const auto shared = testing::MakeBuckets(
      testing::RandomHistograms(&rng, 4, 3, 7), 3);
  Round same_buckets;
  for (const char* tenant : {"alpha", "beta"}) {
    same_buckets.push_back(
        {tenant, MakeReleaseSnapshot(latest[tenant] + 1, shared.bucketization)});
  }
  rounds.push_back(same_buckets);
  DurableStoreOptions options;
  options.profile_max_k = 2;

  options.dir = FreshDir("cksafe_bytes_groups");
  const std::string groups = options.dir;
  {
    auto store = DurableStore::Open(options);
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_TRUE(WriteRounds(store->get(), rounds).ok());
  }
  options.dir = FreshDir("cksafe_bytes_singles");
  const std::string singles = options.dir;
  {
    auto store = DurableStore::Open(options);
    ASSERT_TRUE(store.ok()) << store.status();
    for (const PublishPlan& p : CommitOrder(rounds)) {
      ASSERT_TRUE((*store)->AppendPublish(p.tenant, *p.snapshot).ok());
    }
  }
  for (const char* file : {"/MANIFEST", "/segments.dat"}) {
    const auto a = ReadFileBytes(groups + file);
    const auto b = ReadFileBytes(singles + file);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_FALSE(a->empty());
    EXPECT_TRUE(*a == *b) << file << " differs between groups and singles";
  }
  fs::remove_all(groups);
  fs::remove_all(singles);
}

TEST(PersistRecoveryTest, BitFlipInCommittedSegmentFailsOpenValidation) {
  // Recovery validates page checksums, not just extents: flip one byte of
  // a committed segment page and the affected record (and everything
  // after it, by the prefix rule) must be discarded.
  const uint64_t seed = testing::TestSeed(20260812);
  SCOPED_TRACE(testing::SeedTrace(seed));
  const std::vector<Round> rounds = MakePlan(seed, 4);
  const std::vector<PublishPlan> plan = CommitOrder(rounds);
  const std::string dir = FreshDir("cksafe_bitflip");
  WriteStore(dir, rounds);
  {
    std::fstream f(dir + "/segments.dat",
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    // Flip a payload byte in the second committed page (page 0 is the
    // file's header page).
    f.seekg(2 * kPageSize + kPageHeaderSize + 10);
    char byte = 0;
    f.get(byte);
    f.seekp(2 * kPageSize + kPageHeaderSize + 10);
    f.put(static_cast<char>(byte ^ 0x20));
  }
  const size_t recovered = CheckRecoveredPrefix(dir, plan);
  EXPECT_LT(recovered, plan.size());
  fs::remove_all(dir);
}

// Forked child: opens the store with the crash seam armed and replays the
// plan until SIGKILL takes it down. Exit code 42 means the child finished
// every publish without crossing the threshold (threshold past the end).
void RunWriterChild(const std::string& dir, const std::vector<Round>& plan,
                    int64_t crash_after_bytes) {
  DurableStoreOptions options;
  options.dir = dir;
  options.test_crash_after_bytes = crash_after_bytes;
  auto store = DurableStore::Open(options);
  if (!store.ok()) _exit(3);
  if (!WriteRounds(store->get(), plan).ok()) _exit(4);
  _exit(42);
}

// Kills a forked writer at `threshold` appended bytes into a fresh store
// at `dir`, checks the torn store recovers to an exact prefix of commit
// order, and that a second writer (no crash seam) resumes from it to the
// full history. `*recovered` receives the prefix length after the kill.
void KillRecoverResume(const std::string& dir, const std::vector<Round>& plan,
                       int64_t threshold, size_t* recovered) {
  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << std::strerror(errno);
  if (pid == 0) {
    RunWriterChild(dir, plan, threshold);  // never returns
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status) || WIFEXITED(status));
  if (WIFSIGNALED(status)) {
    ASSERT_EQ(WTERMSIG(status), SIGKILL);
  } else {
    ASSERT_EQ(WEXITSTATUS(status), 42)
        << "child failed rather than finishing or dying";
  }

  const std::vector<PublishPlan> order = CommitOrder(plan);
  *recovered = CheckRecoveredPrefix(dir, order);
  {
    DurableStoreOptions options;
    options.dir = dir;
    auto store = DurableStore::Open(options);
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_TRUE(WriteRounds(store->get(), plan).ok()) << "resume failed";
  }
  EXPECT_EQ(CheckRecoveredPrefix(dir, order), order.size());
}

TEST(PersistRecoveryTest, KillMidPublishAtRandomizedOffsetsRecoversExactly) {
  const uint64_t seed = testing::TestSeed(20260813);
  SCOPED_TRACE(testing::SeedTrace(seed));
  const std::vector<Round> plan = MakePlan(seed, 5);

  // Measure the full byte extent once (clean run) so the sweep can place
  // kill thresholds anywhere inside the real write stream.
  const std::string probe = FreshDir("cksafe_kill_probe");
  WriteStore(probe, plan);
  const uint64_t total_bytes =
      FileSize(probe + "/MANIFEST") + FileSize(probe + "/segments.dat");
  fs::remove_all(probe);
  ASSERT_GT(total_bytes, 0u);

  Rng rng(seed ^ 0x6b111ULL);
  for (size_t iter = 0; iter < testing::TestIters(8); ++iter) {
    SCOPED_TRACE("kill iteration " + std::to_string(iter));
    const std::string dir = FreshDir("cksafe_kill_" + std::to_string(iter));
    size_t recovered = 0;
    KillRecoverResume(dir, plan,
                      static_cast<int64_t>(1 + rng.NextBelow(total_bytes)),
                      &recovered);
    fs::remove_all(dir);
    if (HasFatalFailure()) return;
  }
}

TEST(PersistRecoveryTest, KillAtGroupBoundariesRecoversExactPrefix) {
  // The crash seam counts appended bytes across both files in write
  // order: a round's segment pages, then its manifest records, the first
  // round's preceded in each file by the file's header. Replaying a clean
  // run gives every round's segment end and every record's end in that
  // count, so each kill point below lands by construction, and the
  // recovered prefix is known exactly: the records wholly written. A kill
  // inside either header leaves a fresh store.
  const uint64_t seed = testing::TestSeed(20260814);
  SCOPED_TRACE(testing::SeedTrace(seed));
  const std::vector<Round> plan = MakePlan(seed, 4);

  std::vector<uint64_t> record_ends;  // in appended bytes, commit order
  std::set<uint64_t> kill_points;
  {
    const std::string probe = FreshDir("cksafe_boundary_probe");
    DurableStoreOptions options;
    options.dir = probe;
    auto store = DurableStore::Open(options);
    ASSERT_TRUE(store.ok()) << store.status();
    uint64_t manifest_before = 0;
    for (const Round& round : plan) {
      ASSERT_TRUE(AppendRound(store->get(), round).ok());
      const uint64_t segments = FileSize(probe + "/segments.dat");
      const auto manifest = ReadFileBytes(probe + "/MANIFEST");
      ASSERT_TRUE(manifest.ok());
      const ManifestScan scan = ScanManifest(*manifest);
      ASSERT_EQ(scan.record_ends.size(), record_ends.size() + round.size());
      const uint64_t segment_end = segments + manifest_before;
      kill_points.insert(segment_end);      // last segment byte written
      kill_points.insert(segment_end + 1);  // first manifest byte written
      if (manifest_before == 0) {
        // Inside segments.dat's header page, at its end, and inside
        // MANIFEST's header.
        kill_points.insert({1, kPageSize / 2, kPageSize - 1, kPageSize});
        for (uint64_t b = 2; b <= kManifestHeaderSize; ++b) {
          kill_points.insert(segment_end + b);
        }
      }
      for (size_t i = record_ends.size(); i < scan.record_ends.size(); ++i) {
        const uint64_t end = segments + scan.record_ends[i];
        record_ends.push_back(end);
        kill_points.insert({end - 1, end, end + 1});
      }
      manifest_before = manifest->size();
    }
    store->reset();
    fs::remove_all(probe);
  }

  for (const uint64_t threshold : kill_points) {
    SCOPED_TRACE("kill after byte " + std::to_string(threshold));
    const size_t expected = static_cast<size_t>(
        std::upper_bound(record_ends.begin(), record_ends.end(), threshold) -
        record_ends.begin());
    const std::string dir = FreshDir("cksafe_boundary_kill");
    size_t recovered = 0;
    KillRecoverResume(dir, plan, static_cast<int64_t>(threshold), &recovered);
    EXPECT_EQ(recovered, expected);
    fs::remove_all(dir);
    if (HasFatalFailure()) return;
  }
}

TEST(PersistRecoveryTest, IoErrorMidGroupWedgesAndCommitsNothing) {
  // A forked writer commits a prefix, then lowers its file-size limit
  // below the end of a multi-tenant group's segment pages (SIGXFSZ
  // ignored, so the write fails with EFBIG). The group must fail with
  // IOError and commit nothing in memory, the store must wedge, and the
  // directory must reopen to exactly the pre-group prefix.
  const uint64_t seed = testing::TestSeed(20260815);
  SCOPED_TRACE(testing::SeedTrace(seed));
  const std::vector<Round> plan = MakePlan(seed, 4);
  const std::vector<Round> prefix(plan.begin(), plan.end() - 1);
  const Round& group = plan.back();
  ASSERT_GE(group.size(), 2u);
  const size_t prefix_records = CommitOrder(prefix).size();

  // Where the group's segment pages start and end in a clean run.
  const std::string probe = FreshDir("cksafe_wedge_probe");
  WriteStore(probe, prefix);
  const uint64_t group_begin = FileSize(probe + "/segments.dat");
  WriteStore(probe, plan);
  const uint64_t group_end = FileSize(probe + "/segments.dat");
  fs::remove_all(probe);
  ASSERT_LT(group_begin, group_end);
  Rng rng(seed ^ 0x3f5eULL);
  const uint64_t limit = group_begin + rng.NextBelow(group_end - group_begin);
  SCOPED_TRACE("file size limit " + std::to_string(limit));

  const std::string dir = FreshDir("cksafe_wedge");
  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << std::strerror(errno);
  if (pid == 0) {
    DurableStoreOptions options;
    options.dir = dir;
    auto store = DurableStore::Open(options);
    if (!store.ok() || !WriteRounds(store->get(), prefix).ok()) _exit(3);
    const std::vector<std::string> tenants = (*store)->tenants();
    std::map<std::string, uint64_t> latest;
    for (const PublishPlan& p : group) {
      latest[p.tenant] = (*store)->LatestSequence(p.tenant);
    }
    std::signal(SIGXFSZ, SIG_IGN);
    const rlimit cap = {static_cast<rlim_t>(limit), static_cast<rlim_t>(limit)};
    if (setrlimit(RLIMIT_FSIZE, &cap) != 0) _exit(4);
    if (AppendRound(store->get(), group).code() != StatusCode::kIOError) {
      _exit(5);
    }
    if (AppendRound(store->get(), group).code() !=
        StatusCode::kFailedPrecondition) {
      _exit(6);
    }
    if ((*store)->records().size() != prefix_records) _exit(7);
    if ((*store)->tenants() != tenants) _exit(8);
    for (const auto& [tenant, sequence] : latest) {
      if ((*store)->LatestSequence(tenant) != sequence) _exit(9);
    }
    _exit(42);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "writer died by signal";
  ASSERT_EQ(WEXITSTATUS(status), 42) << "wedge check failed in the writer";
  EXPECT_EQ(CheckRecoveredPrefix(dir, CommitOrder(plan)), prefix_records);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace cksafe
