// Unit and property coverage for the durable store's building blocks:
// page framing, the label dictionary, the snapshot/dictionary codecs, the
// manifest scanner, the buffer pool, and the assembled DurableStore's
// publish → load → verify round trip. The recovery torture (kill -9,
// truncation sweeps) lives in persist_recovery_test.cc.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "cksafe/core/disclosure.h"
#include "cksafe/persist/buffer_pool.h"
#include "cksafe/persist/durable_store.h"
#include "cksafe/persist/manifest.h"
#include "cksafe/persist/segment.h"
#include "cksafe/serve/release_snapshot.h"
#include "cksafe/util/page_io.h"
#include "testing_util.h"

namespace cksafe {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// --- byte codec ---

TEST(PageIoTest, ByteWriterReaderRoundTrip) {
  ByteWriter w;
  w.PutU8(0xab);
  w.PutU16(0xbeef);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefULL);
  w.PutI32(-42);
  w.PutDouble(0.1);  // not exactly representable: must survive as bits
  w.PutString("qi label");
  ByteReader r(w.bytes());
  EXPECT_EQ(*r.U8(), 0xab);
  EXPECT_EQ(*r.U16(), 0xbeef);
  EXPECT_EQ(*r.U32(), 0xdeadbeefu);
  EXPECT_EQ(*r.U64(), 0x0123456789abcdefULL);
  EXPECT_EQ(*r.I32(), -42);
  EXPECT_EQ(*r.Double(), 0.1);  // exact: bit pattern, not text
  EXPECT_EQ(*r.String(), "qi label");
  EXPECT_TRUE(r.exhausted());
}

TEST(PageIoTest, ReaderRefusesShortInput) {
  ByteWriter w;
  w.PutU32(7);
  ByteReader r(w.bytes());
  EXPECT_TRUE(r.U32().ok());
  EXPECT_FALSE(r.U32().ok());  // past the end -> Status, not UB
  ByteReader str(w.bytes());
  EXPECT_FALSE(str.String().ok());  // length prefix 7 > remaining 0
}

TEST(PageIoTest, Fnv1aIsSeedableAndSensitive) {
  const std::vector<uint8_t> bytes = {1, 2, 3, 4};
  const uint64_t h = Fnv1a64(bytes.data(), bytes.size());
  EXPECT_EQ(h, Fnv1a64(bytes.data(), bytes.size()));
  std::vector<uint8_t> flipped = bytes;
  flipped[2] ^= 1;
  EXPECT_NE(h, Fnv1a64(flipped.data(), flipped.size()));
  EXPECT_NE(h, Fnv1a64(bytes.data(), bytes.size(), h));  // chained != plain
}

// --- page framing ---

TEST(SegmentTest, FramesAndUnframesAcrossPages) {
  // 3 pages: two full payloads plus a tail.
  std::vector<uint8_t> blob(2 * kPagePayloadCapacity + 123);
  for (size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<uint8_t>(i * 31);
  }
  const std::vector<uint8_t> pages =
      FrameSegmentPages(PageType::kSnapshot, blob);
  ASSERT_EQ(pages.size(), 3 * kPageSize);
  std::vector<uint8_t> decoded;
  bool is_last = false;
  for (size_t p = 0; p < 3; ++p) {
    ASSERT_FALSE(is_last);
    ASSERT_TRUE(UnframeSegmentPage(pages.data() + p * kPageSize,
                                   PageType::kSnapshot, p == 0, &is_last,
                                   &decoded)
                    .ok());
  }
  EXPECT_TRUE(is_last);
  EXPECT_EQ(decoded, blob);
}

TEST(SegmentTest, CorruptionNeverValidates) {
  const std::vector<uint8_t> blob(100, 0x5a);
  std::vector<uint8_t> pages = FrameSegmentPages(PageType::kSnapshot, blob);
  std::vector<uint8_t> out;
  bool is_last = false;
  // Wrong type.
  EXPECT_FALSE(UnframeSegmentPage(pages.data(), PageType::kDictionary, true,
                                  &is_last, &out)
                   .ok());
  // Wrong position expectation.
  EXPECT_FALSE(
      UnframeSegmentPage(pages.data(), PageType::kSnapshot, false, &is_last,
                         &out)
          .ok());
  // Any single flipped bit (header or payload) fails the checksum.
  for (const size_t offset : {size_t{0}, size_t{5}, size_t{7},
                              kPageHeaderSize, kPageHeaderSize + 99}) {
    std::vector<uint8_t> bad = pages;
    bad[offset] ^= 0x40;
    out.clear();
    EXPECT_FALSE(UnframeSegmentPage(bad.data(), PageType::kSnapshot, true,
                                    &is_last, &out)
                     .ok())
        << "flip at byte " << offset << " validated";
  }
}

TEST(SegmentTest, EmptyBlobStillOccupiesOnePage) {
  const std::vector<uint8_t> pages = FrameSegmentPages(PageType::kDictionary, {});
  ASSERT_EQ(pages.size(), kPageSize);
  std::vector<uint8_t> out;
  bool is_last = false;
  ASSERT_TRUE(UnframeSegmentPage(pages.data(), PageType::kDictionary, true,
                                 &is_last, &out)
                  .ok());
  EXPECT_TRUE(is_last);
  EXPECT_TRUE(out.empty());
}

// --- label dictionary ---

TEST(SegmentTest, DictionaryInternStagesAndApplies) {
  LabelDictionary dict;
  LabelDictionary::Delta first;
  EXPECT_EQ(dict.InternInto("a", &first), 0u);
  EXPECT_EQ(dict.InternInto("b", &first), 1u);
  EXPECT_EQ(dict.InternInto("a", &first), 0u);  // staged label, same id
  ASSERT_TRUE(dict.Apply(first).ok());
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(*dict.Lookup(1), "b");

  LabelDictionary::Delta second;
  EXPECT_EQ(dict.InternInto("a", &second), 0u);  // committed label
  EXPECT_EQ(dict.InternInto("c", &second), 2u);
  EXPECT_EQ(second.first_id, 2u);
  // A dropped delta (crashed publish) leaves the dictionary untouched;
  // re-staging yields the same ids.
  LabelDictionary::Delta restaged;
  EXPECT_EQ(dict.InternInto("c", &restaged), 2u);
  ASSERT_TRUE(dict.Apply(restaged).ok());
  EXPECT_EQ(*dict.Lookup(2), "c");
  // Out-of-order deltas are refused (commit order is the contract).
  LabelDictionary::Delta gap;
  gap.first_id = 7;
  gap.labels = {"z"};
  EXPECT_FALSE(dict.Apply(gap).ok());
}

TEST(SegmentTest, DictionaryDeltaCodecRoundTrips) {
  LabelDictionary::Delta delta;
  delta.first_id = 5;
  delta.labels = {"Zip=148**", "", "Age=[20,30)"};
  const auto decoded = DecodeDictionaryDelta(EncodeDictionaryDelta(delta));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->first_id, 5u);
  EXPECT_EQ(decoded->labels, delta.labels);
  EXPECT_FALSE(DecodeDictionaryDelta({1, 2, 3}).ok());
}

// --- snapshot codec ---

TEST(SegmentTest, SnapshotBlobRoundTripsBitIdentically) {
  const Table table = testing::MakeHospitalTable();
  auto snapshot = MakeReleaseSnapshot(
      3, testing::MakeHospitalBucketization(table), LatticeNode{1, 2, 0});
  LabelDictionary dict;
  LabelDictionary::Delta delta;
  StoredProfile profile;
  profile.implication = DisclosureAnalyzer(snapshot->bucketization)
                            .ImplicationCurve(4);
  profile.negation = DisclosureAnalyzer(snapshot->bucketization).NegationCurve(4);
  const std::vector<uint8_t> blob =
      EncodeSnapshotBlob(*snapshot, profile, dict, &delta);
  ASSERT_TRUE(dict.Apply(delta).ok());

  StoredProfile decoded_profile;
  const auto decoded = DecodeSnapshotBlob(blob, dict, &decoded_profile);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(SnapshotsBitIdentical(**decoded, *snapshot));
  EXPECT_EQ(decoded_profile.implication, profile.implication);
  EXPECT_EQ(decoded_profile.negation, profile.negation);

  // Corrupting any byte of the blob must surface as a decode error or a
  // changed payload, never silently pass structural validation AND decode
  // to the same snapshot. (Bucketization invariants are re-run inside
  // DecodeSnapshotBlob.)
  std::vector<uint8_t> bad = blob;
  bad[0] ^= 0xff;
  StoredProfile ignored;
  EXPECT_FALSE(DecodeSnapshotBlob(bad, dict, &ignored).ok());
}

TEST(SegmentTest, RandomSnapshotsRoundTrip) {
  const uint64_t seed = testing::TestSeed(20260809);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  for (size_t iter = 0; iter < testing::TestIters(20); ++iter) {
    const size_t domain = 2 + rng.NextBelow(5);
    const auto synthetic = testing::MakeBuckets(
        testing::RandomHistograms(&rng, 1 + rng.NextBelow(6), domain, 8),
        domain);
    auto snapshot =
        MakeReleaseSnapshot(1 + rng.NextBelow(100),
                            synthetic.bucketization);
    LabelDictionary dict;
    LabelDictionary::Delta delta;
    const std::vector<uint8_t> blob =
        EncodeSnapshotBlob(*snapshot, StoredProfile{}, dict, &delta);
    ASSERT_TRUE(dict.Apply(delta).ok());
    StoredProfile profile;
    const auto decoded = DecodeSnapshotBlob(blob, dict, &profile);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    ASSERT_TRUE(SnapshotsBitIdentical(**decoded, *snapshot))
        << "iteration " << iter;
    EXPECT_TRUE(profile.empty());
  }
}

// Overwrites the little-endian u32 at `offset` of an encoded blob.
void PatchU32(std::vector<uint8_t>* blob, size_t offset, uint32_t value) {
  ASSERT_LE(offset + 4, blob->size());
  for (size_t i = 0; i < 4; ++i) {
    (*blob)[offset + i] = static_cast<uint8_t>(value >> (8 * i));
  }
}

TEST(SegmentTest, HostileCountsAndMemberIdsAreIOErrorsNotAllocations) {
  // A blob that passes its checksum can still declare counts or ids no
  // blob of its size holds. Each must be refused before the decoder
  // allocates for it: a 4-billion-label reserve, a 4-billion-level node, a
  // person table sized by member id 0xFFFFFFF0, a 4-billion-point profile.
  LabelDictionary::Delta labels;
  labels.labels = {"a"};
  std::vector<uint8_t> dict_blob = EncodeDictionaryDelta(labels);
  PatchU32(&dict_blob, 8, 0xFFFFFFFFu);  // after magic and first id
  const Status dict_status = DecodeDictionaryDelta(dict_blob).status();
  EXPECT_EQ(dict_status.code(), StatusCode::kIOError) << dict_status;
  EXPECT_NE(dict_status.message().find("dictionary label count"),
            std::string::npos)
      << dict_status;

  // One bucket holding person 0, no lattice levels, a one-point profile.
  Bucketization one_bucket(2);
  ASSERT_TRUE(one_bucket.AddBucket(Bucket{{0}, {1, 0}, "q"}).ok());
  const auto snapshot = MakeReleaseSnapshot(1, std::move(one_bucket));
  LabelDictionary dict;
  LabelDictionary::Delta delta;
  StoredProfile profile;
  profile.implication = {0.5};
  profile.negation = {0.25};
  const std::vector<uint8_t> blob =
      EncodeSnapshotBlob(*snapshot, profile, dict, &delta);
  ASSERT_TRUE(dict.Apply(delta).ok());
  // magic, sequence, rows | node size | domain, buckets, label, members
  // | member id ... | profile marker | curve length, two doubles.
  constexpr size_t kNodeSizeAt = 4 + 8 + 8;
  constexpr size_t kMemberIdAt = kNodeSizeAt + 4 + 4 + 4 + 4 + 4;
  const size_t curve_len_at = blob.size() - 4 - 16;

  const auto expect_refused = [&](size_t offset, uint32_t value,
                                  const std::string& reason) {
    std::vector<uint8_t> bad = blob;
    PatchU32(&bad, offset, value);
    StoredProfile ignored;
    const Status status = DecodeSnapshotBlob(bad, dict, &ignored).status();
    EXPECT_EQ(status.code(), StatusCode::kIOError) << status;
    EXPECT_NE(status.message().find(reason), std::string::npos) << status;
  };
  expect_refused(kNodeSizeAt, 0xFFFFFFFFu, "lattice node count");
  expect_refused(kMemberIdAt, 0xFFFFFFF0u, "outside the dense partition");
  expect_refused(curve_len_at, 0xFFFFFFFFu, "profile point count");
  // The unpatched blob still decodes.
  StoredProfile decoded_profile;
  EXPECT_TRUE(DecodeSnapshotBlob(blob, dict, &decoded_profile).ok());
}

// --- manifest ---

TEST(ManifestTest, ScanRecoversRecordsAndStopsAtTornTail) {
  std::vector<uint8_t> image;
  std::vector<ManifestRecord> originals;
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    ManifestRecord record;
    record.tenant = "t" + std::to_string(seq % 2);
    record.sequence = seq;
    record.num_rows = 10 * seq;
    record.snapshot = SegmentRef{seq * kPageSize, 1, 100 + seq, 0xfeed + seq};
    record.has_dict = seq == 1;
    if (record.has_dict) {
      record.dict_first_id = 0;
      record.dict_count = 2;
      record.dict = SegmentRef{0, 1, 40, 0xd1c7};
    }
    const std::vector<uint8_t> bytes = EncodeManifestRecord(record);
    image.insert(image.end(), bytes.begin(), bytes.end());
    originals.push_back(record);
  }
  const ManifestScan full = ScanManifest(image);
  ASSERT_EQ(full.records.size(), 3u);
  EXPECT_EQ(full.committed_bytes, image.size());
  EXPECT_EQ(full.torn_bytes, 0u);
  ASSERT_EQ(full.record_ends.size(), 3u);
  EXPECT_EQ(full.record_ends.back(), image.size());
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(full.records[i].tenant, originals[i].tenant);
    EXPECT_EQ(full.records[i].sequence, originals[i].sequence);
    EXPECT_EQ(full.records[i].snapshot.offset, originals[i].snapshot.offset);
    EXPECT_EQ(full.records[i].has_dict, originals[i].has_dict);
  }

  // Truncating at *every* byte boundary yields exactly the record prefix
  // whose encodings fit — never a partial record, never a scan error.
  for (size_t cut = 0; cut < image.size(); ++cut) {
    const std::vector<uint8_t> torn(image.begin(), image.begin() + cut);
    const ManifestScan scan = ScanManifest(torn);
    size_t expect = 0;
    while (expect < full.record_ends.size() &&
           full.record_ends[expect] <= cut) {
      ++expect;
    }
    ASSERT_EQ(scan.records.size(), expect) << "cut at byte " << cut;
    ASSERT_EQ(scan.committed_bytes,
              expect == 0 ? 0 : full.record_ends[expect - 1])
        << "cut at byte " << cut;
  }

  // A bit flip inside a record cuts the committed prefix there.
  std::vector<uint8_t> flipped = image;
  flipped[full.record_ends[0] + 20] ^= 1;
  EXPECT_EQ(ScanManifest(flipped).records.size(), 1u);
}

// --- buffer pool ---

TEST(BufferPoolTest, CachesPinsAndEvictsLru) {
  const std::string dir = FreshDir("cksafe_pool_test");
  ASSERT_TRUE(std::filesystem::create_directory(dir));
  const std::string path = dir + "/pages.dat";
  AppendFile writer;
  ASSERT_TRUE(writer.Open(path).ok());
  std::vector<uint8_t> page(kPageSize);
  for (uint8_t p = 0; p < 4; ++p) {
    std::fill(page.begin(), page.end(), static_cast<uint8_t>(0x10 + p));
    ASSERT_TRUE(writer.Append(page).ok());
  }
  ASSERT_TRUE(writer.Sync().ok());

  RandomReadFile file;
  ASSERT_TRUE(file.Open(path).ok());
  BufferPool pool(&file, 2);

  {
    const auto a = pool.Fetch(0);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(a->data()[0], 0x10);
    const auto a_again = pool.Fetch(0);
    ASSERT_TRUE(a_again.ok());
    EXPECT_EQ(pool.stats().hits, 1u);
    EXPECT_EQ(pool.stats().misses, 1u);

    const auto b = pool.Fetch(1);
    ASSERT_TRUE(b.ok());
    // Both frames pinned: a third distinct page must be refused, not
    // silently evict pinned data out from under a live ref.
    const auto c = pool.Fetch(2);
    ASSERT_FALSE(c.ok());
    EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);
  }
  // Refs dropped: page 2 now evicts the LRU frame (page 0).
  const auto c = pool.Fetch(2);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->data()[0], 0x12);
  EXPECT_EQ(pool.stats().evictions, 1u);
  // Page 0 was evicted; re-fetching re-reads it with identical bytes.
  const auto a = pool.Fetch(0);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->data()[0], 0x10);
  EXPECT_EQ(pool.stats().evictions, 2u);
  EXPECT_EQ(pool.resident(), 2u);

  std::filesystem::remove_all(dir);
}

// --- durable store end to end ---

TEST(DurableStoreTest, PublishLoadVerifyRoundTrip) {
  const std::string dir = FreshDir("cksafe_store_roundtrip");
  DurableStoreOptions options;
  options.dir = dir;
  options.buffer_pool_pages = 4;
  options.profile_max_k = 3;
  auto store = DurableStore::Open(options);
  ASSERT_TRUE(store.ok()) << store.status();

  const Table table = testing::MakeHospitalTable();
  auto first = MakeReleaseSnapshot(
      1, testing::MakeHospitalBucketization(table), LatticeNode{0, 0});
  ASSERT_TRUE((*store)->AppendPublish("hospital", *first).ok());
  // Sequences must be contiguous per tenant.
  EXPECT_FALSE((*store)->AppendPublish("hospital", *first).ok());
  auto second = MakeReleaseSnapshot(
      2, testing::MakeHospitalBucketization(table), LatticeNode{1, 1});
  ASSERT_TRUE((*store)->AppendPublish("hospital", *second).ok());
  // A second tenant starts at sequence 1 again.
  ASSERT_TRUE((*store)->AppendPublish("clinic", *first).ok());

  EXPECT_EQ((*store)->tenants(),
            (std::vector<std::string>{"clinic", "hospital"}));
  EXPECT_EQ((*store)->Sequences("hospital"), (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ((*store)->LatestSequence("hospital"), 2u);
  EXPECT_EQ((*store)->LatestSequence("nobody"), 0u);

  StoredProfile profile;
  const auto loaded = (*store)->LoadSnapshot("hospital", 1, &profile);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(SnapshotsBitIdentical(**loaded, *first));
  // The stored rider is the analyzer's curve, bit for bit.
  const DisclosureProfile fresh =
      DisclosureAnalyzer(first->bucketization).Profile(3);
  EXPECT_EQ(profile.implication, fresh.implication);
  EXPECT_EQ(profile.negation, fresh.negation);
  EXPECT_FALSE((*store)->LoadSnapshot("hospital", 9).ok());
  EXPECT_FALSE((*store)->LoadSnapshot("nobody", 1).ok());

  const auto report = (*store)->Verify();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->records, 3u);
  EXPECT_EQ(report->tenants, 2u);
  EXPECT_EQ(report->profiles_checked, 3u);

  // Reopen: recovery finds everything committed, nothing torn.
  store->reset();
  auto reopened = DurableStore::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->recovery().records, 3u);
  EXPECT_EQ((*reopened)->recovery().manifest_torn_bytes, 0u);
  EXPECT_EQ((*reopened)->recovery().segment_torn_bytes, 0u);
  const auto reloaded = (*reopened)->LoadSnapshot("hospital", 2);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_TRUE(SnapshotsBitIdentical(**reloaded, *second));

  // Rehydration restores each tenant's latest sequence into a directory.
  ServingDirectory directory;
  ASSERT_TRUE((*reopened)->RehydrateInto(&directory).ok());
  ASSERT_NE(directory.Find("hospital"), nullptr);
  EXPECT_TRUE(SnapshotsBitIdentical(
      *directory.Find("hospital")->Current(), *second));
  EXPECT_TRUE(SnapshotsBitIdentical(
      *directory.Find("clinic")->Current(), *first));

  std::filesystem::remove_all(dir);
}

TEST(DurableStoreTest, RejectedAppendsLeaveNoTrace) {
  // Validation runs before the first byte is written and before any
  // tenant state exists: a rejected single append or group must leave
  // the tenant list, the records and both files exactly as they were,
  // and must not wedge the store.
  const std::string dir = FreshDir("cksafe_store_rejected");
  DurableStoreOptions options;
  options.dir = dir;
  auto store = DurableStore::Open(options);
  ASSERT_TRUE(store.ok()) << store.status();
  const Table table = testing::MakeHospitalTable();
  auto first = MakeReleaseSnapshot(
      1, testing::MakeHospitalBucketization(table), LatticeNode{0, 0});
  auto second = MakeReleaseSnapshot(
      2, testing::MakeHospitalBucketization(table), LatticeNode{1, 1});
  ASSERT_TRUE((*store)->AppendPublish("hospital", *first).ok());

  auto file_sizes = [&] {
    return std::vector<uintmax_t>{
        std::filesystem::file_size(dir + "/MANIFEST"),
        std::filesystem::file_size(dir + "/segments.dat")};
  };
  const std::vector<uintmax_t> sizes = file_sizes();
  auto expect_untouched = [&](const std::string& what) {
    SCOPED_TRACE(what);
    EXPECT_EQ((*store)->tenants(), std::vector<std::string>{"hospital"});
    EXPECT_EQ((*store)->records().size(), 1u);
    EXPECT_EQ((*store)->LatestSequence("ghost"), 0u);
    EXPECT_EQ(file_sizes(), sizes);
  };

  EXPECT_EQ((*store)->AppendPublish("ghost", *second).code(),
            StatusCode::kInvalidArgument);
  expect_untouched("single append out of order");

  std::vector<DurableStore::GroupEntry> group = {
      {"hospital", second.get()}, {"clinic", first.get()},
      {"ghost", second.get()}};
  EXPECT_EQ((*store)->AppendPublishGroup(group).code(),
            StatusCode::kInvalidArgument);
  expect_untouched("group rejected for its last entry");

  // Each entry is valid alone, but both would claim clinic's sequence 1.
  const std::vector<DurableStore::GroupEntry> twice = {
      {"clinic", first.get()}, {"clinic", first.get()}};
  EXPECT_EQ((*store)->AppendPublishGroup(twice).code(),
            StatusCode::kInvalidArgument);
  expect_untouched("group naming a tenant twice");

  EXPECT_TRUE((*store)->AppendPublishGroup({}).ok());
  expect_untouched("empty group");

  // Not wedged: the group without its bad entry commits in entry order.
  group.pop_back();
  ASSERT_TRUE((*store)->AppendPublishGroup(group).ok());
  EXPECT_EQ((*store)->tenants(),
            (std::vector<std::string>{"clinic", "hospital"}));
  const std::vector<ManifestRecord> records = (*store)->records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[1].tenant, "hospital");
  EXPECT_EQ(records[2].tenant, "clinic");
  EXPECT_TRUE((*store)->Verify().ok());
  std::filesystem::remove_all(dir);
}

TEST(DurableStoreTest, TinyBufferPoolServesHistoryLargerThanItself) {
  // A pool smaller than one tenant's history forces evict-and-reload on
  // every access pattern; every reload must stay bit-identical.
  const std::string dir = FreshDir("cksafe_store_evict");
  DurableStoreOptions options;
  options.dir = dir;
  options.buffer_pool_pages = 1;
  auto store = DurableStore::Open(options);
  ASSERT_TRUE(store.ok()) << store.status();

  const uint64_t seed = testing::TestSeed(20260810);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  std::vector<std::shared_ptr<const ReleaseSnapshot>> published;
  for (uint64_t seq = 1; seq <= 6; ++seq) {
    const size_t domain = 3;
    const auto synthetic = testing::MakeBuckets(
        testing::RandomHistograms(&rng, 2 + rng.NextBelow(4), domain, 6),
        domain);
    auto snapshot = MakeReleaseSnapshot(seq, synthetic.bucketization);
    ASSERT_TRUE((*store)->AppendPublish("fleet", *snapshot).ok());
    published.push_back(std::move(snapshot));
  }
  // Random access across the whole history, repeatedly.
  for (size_t probe = 0; probe < 40; ++probe) {
    const uint64_t seq = 1 + rng.NextBelow(published.size());
    const auto loaded = (*store)->LoadSnapshot("fleet", seq);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    ASSERT_TRUE(SnapshotsBitIdentical(**loaded, *published[seq - 1]));
  }
  const BufferPool::Stats stats = (*store)->buffer_stats();
  EXPECT_GT(stats.evictions, 0u) << "a 1-frame pool must have evicted";
  std::filesystem::remove_all(dir);
}

TEST(DurableStoreTest, OpenValidatesOptions) {
  EXPECT_FALSE(DurableStore::Open({}).ok());
  DurableStoreOptions no_pool;
  no_pool.dir = FreshDir("cksafe_store_nopool");
  no_pool.buffer_pool_pages = 0;
  EXPECT_FALSE(DurableStore::Open(no_pool).ok());
}

}  // namespace
}  // namespace cksafe
