// Unit and property coverage for the durable store's building blocks:
// the checksums, page framing, the label dictionary, the
// snapshot/dictionary codecs, the manifest scanner, the buffer pool, the
// file headers, and the assembled DurableStore's publish → load → verify
// round trip, also with loads racing the writer. The recovery torture
// (kill -9, truncation sweeps) lives in persist_recovery_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
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

uint64_t XxHash64Of(std::string_view s, uint64_t seed = 0) {
  return XxHash64(reinterpret_cast<const uint8_t*>(s.data()), s.size(), seed);
}

TEST(PageIoTest, XxHash64MatchesReferenceAndIsSensitive) {
  // The reference digests: short inputs, one that crosses the 32-byte
  // stripe loop and every tail step, and a seeded one.
  EXPECT_EQ(XxHash64Of(""), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(XxHash64Of("a"), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(XxHash64Of("abc"), 0x44BC2CF5AD770999ULL);
  EXPECT_EQ(XxHash64Of("Nobody inspects the spammish repetition"),
            0xFBCEA83C8A378BF1ULL);
  EXPECT_EQ(XxHash64Of("xxhash", 20141025), 0xB559B98D844E0635ULL);
  EXPECT_NE(XxHash64Of("abc", 1), XxHash64Of("abc"));

  // Every single-bit flip of a full page payload changes the digest.
  std::vector<uint8_t> payload(kPageSize - 16);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  const uint64_t digest = XxHash64(payload.data(), payload.size(), 42);
  for (size_t bit = 0; bit < 8 * payload.size(); ++bit) {
    payload[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    ASSERT_NE(XxHash64(payload.data(), payload.size(), 42), digest)
        << "flip of bit " << bit;
    payload[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }
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

// Frames `blob` as one segment of `type` at file offset 0.
std::vector<uint8_t> Frame(PageType type, const std::vector<uint8_t>& blob,
                           SegmentRef* ref) {
  std::vector<uint8_t> pages;
  SegmentWriter writer(type, 0, &pages);
  for (const uint8_t byte : blob) writer.PutU8(byte);
  *ref = writer.Finish();
  return pages;
}

// Unframes the segment `ref` from `file`, the segment file's bytes.
Status Unframe(const std::vector<uint8_t>& file, const SegmentRef& ref,
               PageType type, std::vector<uint8_t>* blob) {
  SegmentReader reader(ref, type, blob);
  for (uint32_t p = 0; p < ref.pages; ++p) {
    CKSAFE_RETURN_IF_ERROR(
        reader.AddPage(file.data() + ref.offset + p * kPageSize));
  }
  return reader.Finish();
}

// Runs `encode` into one segment of `type` and returns its blob, unframed.
template <typename Encode>
std::vector<uint8_t> EncodeToBlob(PageType type, Encode encode) {
  std::vector<uint8_t> pages;
  SegmentWriter writer(type, 0, &pages);
  encode(&writer);
  const SegmentRef ref = writer.Finish();
  std::vector<uint8_t> blob;
  const Status unframed = Unframe(pages, ref, type, &blob);
  EXPECT_TRUE(unframed.ok()) << unframed;
  return blob;
}

TEST(SegmentTest, FramesAndUnframesAcrossPages) {
  // 3 pages: two full payloads plus a tail; exactly two full payloads is
  // 2 pages, the second one last.
  for (const size_t size :
       {2 * kPagePayloadCapacity + 123, 2 * kPagePayloadCapacity}) {
    std::vector<uint8_t> blob(size);
    for (size_t i = 0; i < blob.size(); ++i) {
      blob[i] = static_cast<uint8_t>(i * 31);
    }
    SegmentRef ref;
    const std::vector<uint8_t> pages = Frame(PageType::kSnapshot, blob, &ref);
    const size_t expect_pages =
        (size + kPagePayloadCapacity - 1) / kPagePayloadCapacity;
    ASSERT_EQ(pages.size(), expect_pages * kPageSize);
    EXPECT_EQ(ref.offset, 0u);
    EXPECT_EQ(ref.pages, expect_pages);
    EXPECT_EQ(ref.blob_size, size);
    std::vector<uint8_t> decoded;
    ASSERT_TRUE(Unframe(pages, ref, PageType::kSnapshot, &decoded).ok());
    EXPECT_EQ(decoded, blob);
  }

  // Words straddle page boundaries; the blob is the byte stream a
  // ByteWriter encodes for the same calls.
  ByteWriter bytes;
  const std::vector<uint8_t> blob = EncodeToBlob(
      PageType::kSnapshot, [&](SegmentWriter* w) {
        const std::vector<uint32_t> run(kPagePayloadCapacity / 4 + 3,
                                        0xa1b2c3d4u);
        for (int i = 0; i < 3; ++i) {
          w->PutU8(0x7f);
          bytes.PutU8(0x7f);
          w->PutU32s(run.data(), run.size());
          for (const uint32_t v : run) bytes.PutU32(v);
          w->PutU64(0x0102030405060708ULL + i);
          bytes.PutU64(0x0102030405060708ULL + i);
          w->PutDouble(0.1 * i);
          bytes.PutDouble(0.1 * i);
          w->PutString("label");
          bytes.PutString("label");
        }
      });
  EXPECT_EQ(blob, bytes.bytes());
}

TEST(SegmentTest, CorruptionNeverValidates) {
  SegmentRef ref;
  const std::vector<uint8_t> pages =
      Frame(PageType::kSnapshot, std::vector<uint8_t>(100, 0x5a), &ref);
  std::vector<uint8_t> out;
  // Wrong type.
  EXPECT_FALSE(Unframe(pages, ref, PageType::kDictionary, &out).ok());
  // Any single flipped bit (header or payload) fails the checksum.
  for (const size_t offset : {size_t{0}, size_t{5}, size_t{7}, size_t{8},
                              kPageHeaderSize, kPageHeaderSize + 99}) {
    std::vector<uint8_t> bad = pages;
    bad[offset] ^= 0x40;
    EXPECT_FALSE(Unframe(bad, ref, PageType::kSnapshot, &out).ok())
        << "flip at byte " << offset << " validated";
  }
  // A record whose blob size or derived blob checksum disagrees.
  SegmentRef bad_size = ref;
  bad_size.blob_size += 1;
  EXPECT_FALSE(Unframe(pages, bad_size, PageType::kSnapshot, &out).ok());
  SegmentRef bad_sum = ref;
  bad_sum.blob_checksum ^= 1;
  EXPECT_FALSE(Unframe(pages, bad_sum, PageType::kSnapshot, &out).ok());

  // Pages out of position: a segment's second page fed first, and its
  // first page fed twice.
  SegmentRef two;
  const std::vector<uint8_t> two_pages = Frame(
      PageType::kSnapshot, std::vector<uint8_t>(kPagePayloadCapacity + 1, 1),
      &two);
  ASSERT_EQ(two.pages, 2u);
  SegmentReader second_first(two, PageType::kSnapshot, &out);
  EXPECT_FALSE(second_first.AddPage(two_pages.data() + kPageSize).ok());
  SegmentReader first_twice(two, PageType::kSnapshot, &out);
  ASSERT_TRUE(first_twice.AddPage(two_pages.data()).ok());
  EXPECT_FALSE(first_twice.AddPage(two_pages.data()).ok());
  // A segment cut short of its last page.
  SegmentReader cut(two, PageType::kSnapshot, &out);
  ASSERT_TRUE(cut.AddPage(two_pages.data()).ok());
  EXPECT_FALSE(cut.Finish().ok());
}

TEST(SegmentTest, EmptyBlobStillOccupiesOnePage) {
  SegmentRef ref;
  const std::vector<uint8_t> pages = Frame(PageType::kDictionary, {}, &ref);
  ASSERT_EQ(pages.size(), kPageSize);
  EXPECT_EQ(ref.pages, 1u);
  EXPECT_EQ(ref.blob_size, 0u);
  std::vector<uint8_t> out = {1};
  ASSERT_TRUE(Unframe(pages, ref, PageType::kDictionary, &out).ok());
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
  const auto decoded = DecodeDictionaryDelta(
      EncodeToBlob(PageType::kDictionary, [&](SegmentWriter* w) {
        EncodeDictionaryDelta(delta, w);
      }));
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
      EncodeToBlob(PageType::kSnapshot, [&](SegmentWriter* w) {
        EncodeSnapshotBlob(*snapshot, profile, dict, &delta, w);
      });
  ASSERT_TRUE(dict.Apply(delta).ok());
  const uint32_t domain =
      static_cast<uint32_t>(snapshot->bucketization.sensitive_domain_size());

  StoredProfile decoded_profile;
  const auto decoded =
      DecodeSnapshotBlob(blob, dict, domain, &decoded_profile);
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
  EXPECT_FALSE(DecodeSnapshotBlob(bad, dict, domain, &ignored).ok());
  // The record's domain must match the blob's.
  EXPECT_FALSE(DecodeSnapshotBlob(blob, dict, domain + 1, &ignored).ok());
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
        EncodeToBlob(PageType::kSnapshot, [&](SegmentWriter* w) {
          EncodeSnapshotBlob(*snapshot, StoredProfile{}, dict, &delta, w);
        });
    ASSERT_TRUE(dict.Apply(delta).ok());
    StoredProfile profile;
    const auto decoded = DecodeSnapshotBlob(
        blob, dict, static_cast<uint32_t>(domain), &profile);
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
  // allocates for it: a 4-billion-label reserve, a 4-billion-level node,
  // a 4-billion-entry histogram per bucket, a person table sized by member
  // id 0xFFFFFFF0, a 4-billion-point profile.
  LabelDictionary::Delta labels;
  labels.labels = {"a"};
  std::vector<uint8_t> dict_blob =
      EncodeToBlob(PageType::kDictionary, [&](SegmentWriter* w) {
        EncodeDictionaryDelta(labels, w);
      });
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
      EncodeToBlob(PageType::kSnapshot, [&](SegmentWriter* w) {
        EncodeSnapshotBlob(*snapshot, profile, dict, &delta, w);
      });
  ASSERT_TRUE(dict.Apply(delta).ok());
  // magic, sequence, rows | node size | domain | buckets, label, members
  // | member id ... | profile marker | curve length, two doubles.
  constexpr size_t kNodeSizeAt = 4 + 8 + 8;
  constexpr size_t kDomainAt = kNodeSizeAt + 4;
  constexpr size_t kMemberIdAt = kDomainAt + 4 + 4 + 4 + 4;
  const size_t curve_len_at = blob.size() - 4 - 16;

  const auto expect_refused = [&](size_t offset, uint32_t value,
                                  const std::string& reason,
                                  uint32_t record_domain = 2) {
    std::vector<uint8_t> bad = blob;
    PatchU32(&bad, offset, value);
    StoredProfile ignored;
    const Status status =
        DecodeSnapshotBlob(bad, dict, record_domain, &ignored).status();
    EXPECT_EQ(status.code(), StatusCode::kIOError) << status;
    EXPECT_NE(status.message().find(reason), std::string::npos) << status;
  };
  expect_refused(kNodeSizeAt, 0xFFFFFFFFu, "lattice node count");
  expect_refused(kDomainAt, 0xFFFFFFFFu, "sensitive domain");
  // The record agreeing with its blob bounds nothing; the cell cap does.
  expect_refused(kDomainAt, 0xFFFFFFFFu, "more histogram cells", 0xFFFFFFFFu);
  const auto over_cap = static_cast<uint32_t>(kMaxSnapshotHistogramCells + 1);
  expect_refused(kDomainAt, over_cap, "more histogram cells", over_cap);
  expect_refused(kMemberIdAt, 0xFFFFFFF0u, "outside the dense partition");
  expect_refused(curve_len_at, 0xFFFFFFFFu, "profile point count");
  // The unpatched blob still decodes.
  StoredProfile decoded_profile;
  EXPECT_TRUE(DecodeSnapshotBlob(blob, dict, 2, &decoded_profile).ok());
}

// --- manifest ---

TEST(ManifestTest, ScanRecoversRecordsAndStopsAtTornTail) {
  std::vector<uint8_t> image = ManifestHeader();
  std::vector<ManifestRecord> originals;
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    ManifestRecord record;
    record.tenant = "t" + std::to_string(seq % 2);
    record.sequence = seq;
    record.num_rows = 10 * seq;
    record.domain = static_cast<uint32_t>(2 + seq);
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
  ASSERT_EQ(full.record_ends.size(), 3u);
  EXPECT_EQ(full.record_ends.back(), image.size());
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(full.records[i].tenant, originals[i].tenant);
    EXPECT_EQ(full.records[i].sequence, originals[i].sequence);
    EXPECT_EQ(full.records[i].domain, originals[i].domain);
    EXPECT_EQ(full.records[i].snapshot.offset, originals[i].snapshot.offset);
    EXPECT_EQ(full.records[i].snapshot.blob_checksum,
              originals[i].snapshot.blob_checksum);
    EXPECT_EQ(full.records[i].has_dict, originals[i].has_dict);
  }
  // Records without the header (the headerless layout) are not records.
  const std::vector<uint8_t> headerless(image.begin() + kManifestHeaderSize,
                                        image.end());
  EXPECT_TRUE(ScanManifest(headerless).records.empty());

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
    ASSERT_EQ(scan.record_ends,
              std::vector<uint64_t>(full.record_ends.begin(),
                                    full.record_ends.begin() + expect))
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

TEST(DurableStoreTest, LoadsRaceGroupAppends) {
  // One writer appends groups while reader threads load committed
  // sequences through a small pool: every load must be bit-identical to
  // what was published, and a committed sequence never goes missing.
  const uint64_t seed = testing::TestSeed(20260817);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  const std::vector<std::string> tenants = {"alpha", "beta", "gamma", "delta"};
  const size_t rounds = testing::TestIters(12);
  // published[r][t]: tenant t's snapshot at sequence r + 1.
  std::vector<std::vector<std::shared_ptr<const ReleaseSnapshot>>> published(
      rounds);
  for (size_t r = 0; r < rounds; ++r) {
    for (size_t t = 0; t < tenants.size(); ++t) {
      const size_t domain = 2 + rng.NextBelow(4);
      const auto synthetic = testing::MakeBuckets(
          testing::RandomHistograms(&rng, 1 + rng.NextBelow(6), domain, 8),
          domain);
      published[r].push_back(
          MakeReleaseSnapshot(r + 1, synthetic.bucketization));
    }
  }
  DurableStoreOptions options;
  options.dir = FreshDir("cksafe_store_race");
  options.buffer_pool_pages = 4;
  auto opened = DurableStore::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status();
  DurableStore* const store = opened->get();

  std::atomic<size_t> committed{0};  // rounds whose group append returned
  std::atomic<bool> done{false};
  std::atomic<size_t> failures{0};
  std::thread writer([&] {
    for (size_t r = 0; r < rounds; ++r) {
      std::vector<DurableStore::GroupEntry> group;
      for (size_t t = 0; t < tenants.size(); ++t) {
        group.push_back({tenants[t], published[r][t].get()});
      }
      if (!store->AppendPublishGroup(group).ok()) ++failures;
      committed.store(r + 1, std::memory_order_release);
    }
    done.store(true, std::memory_order_release);
  });
  constexpr size_t kReaders = 3;
  std::vector<size_t> loads(kReaders, 0);
  std::vector<std::thread> readers;
  for (size_t i = 0; i < kReaders; ++i) {
    readers.emplace_back([&, i] {
      Rng local(seed + 1 + i);
      // Until the writer is done, then one more load over the whole history.
      for (bool last = false; !last;) {
        last = done.load(std::memory_order_acquire);
        const size_t visible = committed.load(std::memory_order_acquire);
        if (visible == 0) {
          std::this_thread::yield();
          continue;
        }
        const size_t r = local.NextBelow(visible);
        const size_t t = local.NextBelow(tenants.size());
        const auto loaded = store->LoadSnapshot(tenants[t], r + 1);
        if (!loaded.ok() ||
            !SnapshotsBitIdentical(**loaded, *published[r][t])) {
          ++failures;
        }
        const std::vector<uint64_t> sequences = store->Sequences(tenants[t]);
        if (sequences.size() < visible) ++failures;
        for (size_t k = 0; k < sequences.size(); ++k) {
          if (sequences[k] != k + 1) ++failures;
        }
        if (store->LatestSequence(tenants[t]) < visible) ++failures;
        ++loads[i];
      }
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0u);
  for (const size_t n : loads) EXPECT_GT(n, 0u);
  EXPECT_TRUE(store->Verify().ok());
  std::filesystem::remove_all(options.dir);
}

// --- file headers ---

struct StoreFiles {
  std::vector<uint8_t> manifest;
  std::vector<uint8_t> segments;
};

StoreFiles ReadStoreFiles(const std::string& dir) {
  StoreFiles files;
  auto manifest = ReadFileBytes(dir + "/MANIFEST");
  auto segments = ReadFileBytes(dir + "/segments.dat");
  EXPECT_TRUE(manifest.ok() && segments.ok());
  if (manifest.ok()) files.manifest = *std::move(manifest);
  if (segments.ok()) files.segments = *std::move(segments);
  return files;
}

void WriteStoreFiles(const std::string& dir, const StoreFiles& files) {
  std::filesystem::create_directories(dir);
  for (const auto& [name, bytes] :
       {std::pair{"/MANIFEST", &files.manifest},
        std::pair{"/segments.dat", &files.segments}}) {
    std::ofstream out(dir + name, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes->data()),
              static_cast<std::streamsize>(bytes->size()));
    ASSERT_TRUE(out.good()) << dir << name;
  }
}

// A format-2 store holding two publishes.
StoreFiles WriteTwoPublishes(const std::string& dir) {
  DurableStoreOptions options;
  options.dir = dir;
  auto store = DurableStore::Open(options);
  EXPECT_TRUE(store.ok()) << store.status();
  if (!store.ok()) return {};
  // Opening a fresh directory writes nothing: the headers wait for the
  // first group.
  EXPECT_EQ(std::filesystem::file_size(dir + "/MANIFEST"), 0u);
  EXPECT_EQ(std::filesystem::file_size(dir + "/segments.dat"), 0u);
  const Table table = testing::MakeHospitalTable();
  for (uint64_t seq = 1; seq <= 2; ++seq) {
    const auto snapshot =
        MakeReleaseSnapshot(seq, testing::MakeHospitalBucketization(table));
    EXPECT_TRUE((*store)->AppendPublish("hospital", *snapshot).ok());
  }
  return ReadStoreFiles(dir);
}

TEST(DurableStoreTest, OpenRefusesForeignHeaderlessAndOlderStoresUntouched) {
  const StoreFiles v2 = WriteTwoPublishes(FreshDir("cksafe_store_v2"));
  const std::vector<uint8_t> manifest_header = ManifestHeader();
  const std::vector<uint8_t> segments_header = SegmentsHeader();
  ASSERT_GT(v2.manifest.size(), manifest_header.size());
  ASSERT_GT(v2.segments.size(), segments_header.size());
  ASSERT_TRUE(std::equal(manifest_header.begin(), manifest_header.end(),
                         v2.manifest.begin()));
  ASSERT_TRUE(std::equal(segments_header.begin(), segments_header.end(),
                         v2.segments.begin()));

  Rng rng(testing::TestSeed(20260818));
  StoreFiles random{std::vector<uint8_t>(kPageSize),
                    std::vector<uint8_t>(2 * kPageSize)};
  for (std::vector<uint8_t>* bytes : {&random.manifest, &random.segments}) {
    for (uint8_t& byte : *bytes) {
      byte = static_cast<uint8_t>(rng.NextBelow(256));
    }
  }
  // The headerless layout: MANIFEST starts with a "CKMF" record,
  // segments.dat with a "CKPG" snapshot page.
  const StoreFiles headerless{
      {v2.manifest.begin() + kManifestHeaderSize, v2.manifest.end()},
      {v2.segments.begin() + kPageSize, v2.segments.end()}};
  ASSERT_EQ(LoadLittleEndian(headerless.manifest.data(), 4), 0x464d4b43u);
  ASSERT_EQ(LoadLittleEndian(headerless.segments.data(), 4), kPageMagic);
  // Well-formed headers of format version 1, the header page's checksum
  // recomputed so that only the version differs.
  StoreFiles version1 = v2;
  StoreLittleEndian(version1.manifest.data() + 4, 1, 4);
  uint8_t* page = version1.segments.data();
  StoreLittleEndian(page + kPageHeaderSize + 4, 1, 4);
  const uint64_t seed = LoadLittleEndian(page, 8);
  StoreLittleEndian(page + 8, XxHash64(page + kPageHeaderSize, 8, seed), 8);

  const struct {
    const char* name;
    const StoreFiles& files;
    const char* reason;
  } cases[] = {{"random bytes", random, "no valid store header"},
               {"headerless", headerless, "no valid store header"},
               {"format version 1", version1, "format version 1"}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string dir = FreshDir("cksafe_store_refused");
    WriteStoreFiles(dir, c.files);
    DurableStoreOptions options;
    options.dir = dir;
    const auto store = DurableStore::Open(options);
    EXPECT_EQ(store.status().code(), StatusCode::kFailedPrecondition)
        << store.status();
    EXPECT_NE(store.status().message().find(c.reason), std::string::npos)
        << store.status();
    const StoreFiles after = ReadStoreFiles(dir);
    EXPECT_TRUE(after.manifest == c.files.manifest);
    EXPECT_TRUE(after.segments == c.files.segments);
    std::filesystem::remove_all(dir);
  }
  // Only the segment header's version differs: refused as well.
  StoreFiles segments_v1 = v2;
  segments_v1.segments = version1.segments;
  const std::string dir = FreshDir("cksafe_store_refused");
  WriteStoreFiles(dir, segments_v1);
  DurableStoreOptions options;
  options.dir = dir;
  EXPECT_EQ(DurableStore::Open(options).status().code(),
            StatusCode::kFailedPrecondition);
  std::filesystem::remove_all(dir);
}

TEST(DurableStoreTest, TornHeadersOpenAsAFreshStore) {
  // An empty file, or one holding a torn prefix of its header, is a fresh
  // store: Open succeeds with no record and leaves both files empty, so
  // the next publish writes both headers again. A segments.dat without its
  // whole header admits no record, whatever the MANIFEST holds.
  const std::string dir = FreshDir("cksafe_store_torn_header");
  const StoreFiles v2 = WriteTwoPublishes(dir);
  for (const size_t manifest_cut :
       {size_t{0}, size_t{3}, kManifestHeaderSize}) {
    for (const size_t segments_cut :
         {size_t{0}, size_t{5}, kPageSize / 2, kPageSize}) {
      SCOPED_TRACE("MANIFEST cut at " + std::to_string(manifest_cut) +
                   ", segments.dat at " + std::to_string(segments_cut));
      WriteStoreFiles(
          dir, {{v2.manifest.begin(), v2.manifest.begin() + manifest_cut},
                {v2.segments.begin(), v2.segments.begin() + segments_cut}});
      DurableStoreOptions options;
      options.dir = dir;
      auto store = DurableStore::Open(options);
      ASSERT_TRUE(store.ok()) << store.status();
      EXPECT_EQ((*store)->recovery().records, 0u);
      EXPECT_EQ(std::filesystem::file_size(dir + "/MANIFEST"), 0u);
      EXPECT_EQ(std::filesystem::file_size(dir + "/segments.dat"), 0u);
    }
  }
  // A header write torn into zero-filled blocks is fresh as well, whatever
  // of the group's bytes came after it: every header byte is either
  // written or still zero.
  const auto zeroed = [](std::vector<uint8_t> bytes, size_t from, size_t to) {
    std::fill(bytes.begin() + from, bytes.begin() + to, 0);
    return bytes;
  };
  const struct {
    const char* name;
    StoreFiles files;
  } torn[] = {
      {"both headers zero",
       {zeroed(v2.manifest, 0, kManifestHeaderSize),
        zeroed(v2.segments, 0, kPageSize)}},
      {"segments.dat header zero, MANIFEST whole",
       {v2.manifest, zeroed(v2.segments, 0, kPageSize)}},
      {"segments.dat header's payload zero",
       {v2.manifest,
        zeroed(v2.segments, kPageHeaderSize, kPageHeaderSize + 8)}},
      {"MANIFEST magic zero", {zeroed(v2.manifest, 0, 4), v2.segments}},
  };
  for (const auto& t : torn) {
    SCOPED_TRACE(t.name);
    WriteStoreFiles(dir, t.files);
    DurableStoreOptions options;
    options.dir = dir;
    auto store = DurableStore::Open(options);
    ASSERT_TRUE(store.ok()) << store.status();
    EXPECT_EQ((*store)->recovery().records, 0u);
    EXPECT_EQ(std::filesystem::file_size(dir + "/MANIFEST"), 0u);
    EXPECT_EQ(std::filesystem::file_size(dir + "/segments.dat"), 0u);
  }
  // The emptied store takes the same first publishes again.
  const StoreFiles again = WriteTwoPublishes(dir);
  EXPECT_TRUE(again.manifest == v2.manifest);
  EXPECT_TRUE(again.segments == v2.segments);
  std::filesystem::remove_all(dir);
}

TEST(DurableStoreTest, HeaderPagePaddingIsNotChecked) {
  // As on every page, the header page's padding lies outside its
  // checksum and is never read: a flipped padding byte leaves the store
  // whole. A flipped checksum byte does not.
  const std::string dir = FreshDir("cksafe_store_header_padding");
  const StoreFiles v2 = WriteTwoPublishes(dir);
  StoreFiles padding_flip = v2;
  padding_flip.segments[kPageSize - 1] ^= 0x10;
  padding_flip.segments[kPageHeaderSize + 8 + 100] ^= 0x01;
  WriteStoreFiles(dir, padding_flip);
  DurableStoreOptions options;
  options.dir = dir;
  {
    auto store = DurableStore::Open(options);
    ASSERT_TRUE(store.ok()) << store.status();
    EXPECT_EQ((*store)->recovery().records, 2u);
    EXPECT_TRUE((*store)->LoadSnapshot("hospital", 2).ok());
    EXPECT_TRUE((*store)->Verify().ok());
  }
  const StoreFiles after = ReadStoreFiles(dir);
  EXPECT_TRUE(after.manifest == padding_flip.manifest);
  EXPECT_TRUE(after.segments == padding_flip.segments);

  StoreFiles checksum_flip = v2;
  checksum_flip.segments[8] ^= 0x01;
  WriteStoreFiles(dir, checksum_flip);
  EXPECT_EQ(DurableStore::Open(options).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(ReadStoreFiles(dir).segments == checksum_flip.segments);
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
