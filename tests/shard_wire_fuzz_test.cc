// shard/wire.h fuzz: every message type must round-trip bit-identically
// through encode -> frame -> decode under seeded random contents, and no
// hostile byte stream — truncated, bit-flipped, oversized, or plain random
// — may ever do worse than return a Status. The decoders run against
// adversarial input from other processes, so "never crash" here is the
// fleet's memory-safety contract (this test is part of the ASan CI wall).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cksafe/serve/release_snapshot.h"
#include "cksafe/shard/wire.h"
#include "cksafe/util/random.h"
#include "cksafe/util/socket.h"
#include "shard_testing_util.h"
#include "testing_util.h"

namespace cksafe {
namespace {

using testing::RandomSnapshot;
using testing::SeedTrace;
using testing::TestIters;
using testing::TestSeed;

constexpr WireType kAllTypes[] = {
    WireType::kQueryRequest,   WireType::kQueryResponse,
    WireType::kPublishRequest, WireType::kPublishResponse,
    WireType::kHandoffRequest, WireType::kHandoffResponse,
    WireType::kDropRequest,    WireType::kDropResponse,
    WireType::kPingRequest,    WireType::kPingResponse,
};

std::vector<uint8_t> RandomBytes(Rng* rng, size_t size) {
  std::vector<uint8_t> bytes(size);
  for (auto& b : bytes) b = static_cast<uint8_t>(rng->NextBelow(256));
  return bytes;
}

std::string RandomTenant(Rng* rng) {
  const size_t len = 1 + rng->NextBelow(11);  // decoders reject ""
  std::string tenant;
  for (size_t i = 0; i < len; ++i) {
    tenant.push_back(static_cast<char>('a' + rng->NextBelow(26)));
  }
  return tenant;
}

Status RandomStatus(Rng* rng) {
  const std::string msg = RandomTenant(rng);
  switch (rng->NextBelow(6)) {
    case 0: return Status::OK();
    case 1: return Status::InvalidArgument(msg);
    case 2: return Status::NotFound(msg);
    case 3: return Status::ResourceExhausted(msg);
    case 4: return Status::Unavailable(msg);
    default: return Status::Internal(msg);
  }
}

bool StatusEq(const Status& a, const Status& b) {
  return a.code() == b.code() && a.message() == b.message();
}

/// Exact double equality via bit patterns — the doubles travel as raw
/// IEEE-754 bits, so even a NaN would have to survive verbatim.
bool BitsEq(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

QueryAnswer RandomAnswer(Rng* rng) {
  QueryAnswer answer;
  answer.snapshot_sequence = rng->NextUint64();
  answer.safe = rng->NextBelow(2) == 0;
  answer.disclosure = rng->NextDouble();
  answer.negation = rng->NextDouble();
  answer.log_r = rng->NextDouble() * 100.0 - 50.0;
  return answer;
}

WireShardStats RandomStats(Rng* rng) {
  WireShardStats stats;
  stats.submitted = rng->NextUint64();
  stats.rejected = rng->NextUint64();
  stats.answered = rng->NextUint64();
  stats.batches = rng->NextUint64();
  stats.profile_sweeps = rng->NextUint64();
  stats.per_bucket_sweeps = rng->NextUint64();
  stats.snapshot_reloads = rng->NextUint64();
  stats.publishes = rng->NextUint64();
  stats.tenants = rng->NextUint64();
  return stats;
}

/// The payload of a seeded random message of `type`.
std::vector<uint8_t> RandomPayload(Rng* rng, WireType type) {
  switch (type) {
    case WireType::kQueryRequest:
      return EncodeQueryRequest(
          {rng->NextUint64(), testing::RandomQuery(rng, RandomTenant(rng))});
    case WireType::kQueryResponse:
      return EncodeQueryResponse(
          {rng->NextUint64(), RandomStatus(rng), RandomAnswer(rng)});
    case WireType::kPublishRequest:
      return EncodePublishRequest(
          {rng->NextUint64(), RandomTenant(rng),
           RandomSnapshot(rng, 1 + rng->NextBelow(1000),
                          1 + rng->NextBelow(4))});
    case WireType::kPublishResponse:
      return EncodePublishResponse(
          {rng->NextUint64(), RandomStatus(rng), rng->NextUint64()});
    case WireType::kHandoffRequest:
      return EncodeHandoffRequest({rng->NextUint64(), RandomTenant(rng)});
    case WireType::kHandoffResponse: {
      WireHandoffResponse msg;
      msg.id = rng->NextUint64();
      msg.status = RandomStatus(rng);
      const size_t count = rng->NextBelow(3);
      for (size_t s = 0; s < count; ++s) {
        msg.snapshots.push_back(RandomSnapshot(rng, s + 1));
      }
      return EncodeHandoffResponse(msg);
    }
    case WireType::kDropRequest:
      return EncodeDropRequest({rng->NextUint64(), RandomTenant(rng)});
    case WireType::kDropResponse:
      return EncodeDropResponse({rng->NextUint64(), RandomStatus(rng)});
    case WireType::kPingRequest:
      return EncodePingRequest({rng->NextUint64()});
    case WireType::kPingResponse:
      return EncodePingResponse(
          {rng->NextUint64(), RandomStatus(rng), RandomStats(rng)});
  }
  return {};
}

/// A seeded random frame of a random type.
WireFrame RandomFrame(Rng* rng) {
  const WireType type = kAllTypes[rng->NextBelow(std::size(kAllTypes))];
  return {type, RandomPayload(rng, type)};
}

std::vector<uint8_t> Concatenate(const std::vector<WireFrame>& frames) {
  std::vector<uint8_t> stream;
  for (const WireFrame& frame : frames) {
    const std::vector<uint8_t> bytes = EncodeFrame(frame.type, frame.payload);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  return stream;
}

TEST(ShardWireFuzzTest, FrameRoundTripsRandomPayloadsForEveryType) {
  const uint64_t seed = testing::TestSeed(20260801);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  const size_t iters = TestIters(200);
  for (size_t i = 0; i < iters; ++i) {
    for (const WireType type : kAllTypes) {
      const std::vector<uint8_t> payload =
          RandomBytes(&rng, rng.NextBelow(512));
      const std::vector<uint8_t> buffer = EncodeFrame(type, payload);
      ASSERT_EQ(buffer.size(), kWireHeaderSize + payload.size());
      const auto frame = DecodeFrame(buffer);
      ASSERT_TRUE(frame.ok()) << frame.status().ToString();
      EXPECT_EQ(frame->type, type);
      EXPECT_EQ(frame->payload, payload);
    }
  }
}

std::string Hex(const std::vector<uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const uint8_t b : bytes) {
    hex.push_back(kDigits[b >> 4]);
    hex.push_back(kDigits[b & 0xf]);
  }
  return hex;
}

TEST(ShardWireFuzzTest, EncodedFramesMatchGoldenBytes) {
  // One frame of every message type with fixed contents. The hex strings
  // were recorded from the byte-at-a-time encoders that preceded the
  // one-allocation ones, so a rewrite of any encoder cannot drift the wire.
  Bucketization buckets(3);
  ASSERT_TRUE(buckets.AddBucket({{0, 1, 2}, {2, 1, 0}, "age=[20,30)"}).ok());
  ASSERT_TRUE(buckets.AddBucket({{3, 4}, {0, 1, 1}, "age=[30,40)"}).ok());
  const auto snapshot = MakeReleaseSnapshot(7, std::move(buckets), {1, 0});
  Query query;
  query.tenant = "gold";
  query.kind = QueryKind::kPerBucket;
  query.c = 0.5;
  query.k = 3;
  query.bucket = 1;
  QueryAnswer answer;
  answer.snapshot_sequence = 7;
  answer.safe = true;
  answer.disclosure = 0.625;
  answer.negation = 0.375;
  answer.log_r = -0.5;
  WireShardStats stats;
  stats.submitted = 9;
  stats.answered = 8;
  stats.rejected = 1;
  stats.tenants = 2;
  const Status refused = Status::ResourceExhausted("queue full");

  const struct {
    const char* golden;
    std::vector<uint8_t> frame;
  } cases[] = {
      {"434b57460101000029000000be51de28e40153ca0b0000000000000004000000"
       "676f6c6403000000000000e03f03000000000000000100000000000000",
      EncodeFrame(WireType::kQueryRequest, EncodeQueryRequest({11, query}))},
      {"434b5746010200002e0000003057cdb8819ebbcb0c0000000000000000000000"
       "00070000000000000001000000000000e43f000000000000d83f000000000000"
       "e0bf",
      EncodeFrame(WireType::kQueryResponse,
                  EncodeQueryResponse({12, Status::OK(), answer}))},
      {"434b5746010200003800000081509af505ed769f0d00000000000000060a0000"
       "0071756575652066756c6c000000000000000000000000000000000000000000"
       "00000000000000000000f07f",
      EncodeFrame(WireType::kQueryResponse,
                  EncodeQueryResponse({13, refused, QueryAnswer()}))},
      {"434b5746010300008a000000c01db5426ed5527b0e0000000000000004000000"
       "676f6c6407000000000000000500000000000000020000000100000000000000"
       "0300000000000000020000000b0000006167653d5b32302c3330290300000000"
       "00000001000000020000000200000001000000000000000b0000006167653d5b"
       "33302c343029020000000300000004000000000000000100000001000000",
      EncodeFrame(WireType::kPublishRequest,
                  EncodePublishRequest({14, "gold", snapshot}))},
      {"434b57460104000015000000740e60498d1d6f9e0f0000000000000000000000"
       "000700000000000000",
      EncodeFrame(WireType::kPublishResponse,
                  EncodePublishResponse({15, Status::OK(), 7}))},
      {"434b574601050000100000002ac910bf2ff3e0eb100000000000000004000000"
       "676f6c64",
      EncodeFrame(WireType::kHandoffRequest,
                  EncodeHandoffRequest({16, "gold"}))},
      {"434b5746010600008b000000a08e2484d0340f82110000000000000000000000"
       "0001000000070000000000000005000000000000000200000001000000000000"
       "000300000000000000020000000b0000006167653d5b32302c33302903000000"
       "0000000001000000020000000200000001000000000000000b0000006167653d"
       "5b33302c343029020000000300000004000000000000000100000001000000",
      EncodeFrame(WireType::kHandoffResponse,
                  EncodeHandoffResponse({17, Status::OK(), {snapshot}}))},
      {"434b5746010700001000000086e06a9e401ca952120000000000000004000000"
       "676f6c64",
      EncodeFrame(WireType::kDropRequest, EncodeDropRequest({18, "gold"}))},
      {"434b57460108000011000000578a2defc5e0be94130000000000000002040000"
       "00676f6c64",
      EncodeFrame(WireType::kDropResponse,
                  EncodeDropResponse({19, Status::NotFound("gold")}))},
      {"434b5746010900000800000058bd531130b13b471400000000000000",
      EncodeFrame(WireType::kPingRequest, EncodePingRequest({20}))},
      {"434b5746010a0000550000008d7cd6557f4c0884150000000000000000000000"
       "0009000000000000000100000000000000080000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "000200000000000000",
      EncodeFrame(WireType::kPingResponse,
                  EncodePingResponse({21, Status::OK(), stats}))},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(Hex(c.frame), c.golden);
  }
}

TEST(ShardWireFuzzTest, QueryMessagesRoundTrip) {
  const uint64_t seed = testing::TestSeed(20260802);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  const size_t iters = TestIters(300);
  for (size_t i = 0; i < iters; ++i) {
    WireQueryRequest req;
    req.id = rng.NextUint64();
    req.query = testing::RandomQuery(&rng, RandomTenant(&rng));
    const auto req2 = DecodeQueryRequest(EncodeQueryRequest(req));
    ASSERT_TRUE(req2.ok()) << req2.status().ToString();
    EXPECT_EQ(req2->id, req.id);
    EXPECT_EQ(req2->query.tenant, req.query.tenant);
    EXPECT_EQ(req2->query.kind, req.query.kind);
    EXPECT_TRUE(BitsEq(req2->query.c, req.query.c));
    EXPECT_EQ(req2->query.k, req.query.k);
    EXPECT_EQ(req2->query.bucket, req.query.bucket);

    WireQueryResponse resp;
    resp.id = rng.NextUint64();
    resp.status = RandomStatus(&rng);
    resp.answer = RandomAnswer(&rng);
    const auto resp2 = DecodeQueryResponse(EncodeQueryResponse(resp));
    ASSERT_TRUE(resp2.ok()) << resp2.status().ToString();
    EXPECT_EQ(resp2->id, resp.id);
    EXPECT_TRUE(StatusEq(resp2->status, resp.status));
    EXPECT_EQ(resp2->answer.snapshot_sequence, resp.answer.snapshot_sequence);
    EXPECT_EQ(resp2->answer.safe, resp.answer.safe);
    EXPECT_TRUE(BitsEq(resp2->answer.disclosure, resp.answer.disclosure));
    EXPECT_TRUE(BitsEq(resp2->answer.negation, resp.answer.negation));
    EXPECT_TRUE(BitsEq(resp2->answer.log_r, resp.answer.log_r));
  }
}

TEST(ShardWireFuzzTest, SnapshotCarryingMessagesRoundTripBitIdentically) {
  const uint64_t seed = testing::TestSeed(20260803);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  const size_t iters = TestIters(60);
  for (size_t i = 0; i < iters; ++i) {
    WirePublishRequest pub;
    pub.id = rng.NextUint64();
    pub.tenant = RandomTenant(&rng);
    pub.snapshot = RandomSnapshot(&rng, 1 + rng.NextBelow(1000),
                                  1 + rng.NextBelow(4), 2 + rng.NextBelow(3));
    const auto pub2 = DecodePublishRequest(EncodePublishRequest(pub));
    ASSERT_TRUE(pub2.ok()) << pub2.status().ToString();
    EXPECT_EQ(pub2->id, pub.id);
    EXPECT_EQ(pub2->tenant, pub.tenant);
    ASSERT_NE(pub2->snapshot, nullptr);
    EXPECT_TRUE(SnapshotsBitIdentical(*pub2->snapshot, *pub.snapshot));

    WireHandoffResponse handoff;
    handoff.id = rng.NextUint64();
    handoff.status = RandomStatus(&rng);
    const size_t count = rng.NextBelow(4);
    for (size_t s = 0; s < count; ++s) {
      handoff.snapshots.push_back(
          RandomSnapshot(&rng, s + 1, 1 + rng.NextBelow(3)));
    }
    const auto handoff2 = DecodeHandoffResponse(EncodeHandoffResponse(handoff));
    ASSERT_TRUE(handoff2.ok()) << handoff2.status().ToString();
    EXPECT_EQ(handoff2->id, handoff.id);
    EXPECT_TRUE(StatusEq(handoff2->status, handoff.status));
    ASSERT_EQ(handoff2->snapshots.size(), handoff.snapshots.size());
    for (size_t s = 0; s < count; ++s) {
      EXPECT_TRUE(
          SnapshotsBitIdentical(*handoff2->snapshots[s], *handoff.snapshots[s]));
    }
  }
}

TEST(ShardWireFuzzTest, ControlMessagesRoundTrip) {
  const uint64_t seed = testing::TestSeed(20260804);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  const size_t iters = TestIters(300);
  for (size_t i = 0; i < iters; ++i) {
    WirePublishResponse pub;
    pub.id = rng.NextUint64();
    pub.status = RandomStatus(&rng);
    pub.sequence = rng.NextUint64();
    const auto pub2 = DecodePublishResponse(EncodePublishResponse(pub));
    ASSERT_TRUE(pub2.ok());
    EXPECT_EQ(pub2->id, pub.id);
    EXPECT_TRUE(StatusEq(pub2->status, pub.status));
    EXPECT_EQ(pub2->sequence, pub.sequence);

    WireHandoffRequest handoff;
    handoff.id = rng.NextUint64();
    handoff.tenant = RandomTenant(&rng);
    const auto handoff2 = DecodeHandoffRequest(EncodeHandoffRequest(handoff));
    ASSERT_TRUE(handoff2.ok());
    EXPECT_EQ(handoff2->id, handoff.id);
    EXPECT_EQ(handoff2->tenant, handoff.tenant);

    WireDropRequest drop;
    drop.id = rng.NextUint64();
    drop.tenant = RandomTenant(&rng);
    const auto drop2 = DecodeDropRequest(EncodeDropRequest(drop));
    ASSERT_TRUE(drop2.ok());
    EXPECT_EQ(drop2->id, drop.id);
    EXPECT_EQ(drop2->tenant, drop.tenant);

    WireDropResponse dropr;
    dropr.id = rng.NextUint64();
    dropr.status = RandomStatus(&rng);
    const auto dropr2 = DecodeDropResponse(EncodeDropResponse(dropr));
    ASSERT_TRUE(dropr2.ok());
    EXPECT_EQ(dropr2->id, dropr.id);
    EXPECT_TRUE(StatusEq(dropr2->status, dropr.status));

    WirePingRequest ping;
    ping.id = rng.NextUint64();
    const auto ping2 = DecodePingRequest(EncodePingRequest(ping));
    ASSERT_TRUE(ping2.ok());
    EXPECT_EQ(ping2->id, ping.id);

    WirePingResponse pong;
    pong.id = rng.NextUint64();
    pong.status = RandomStatus(&rng);
    pong.stats = RandomStats(&rng);
    const auto pong2 = DecodePingResponse(EncodePingResponse(pong));
    ASSERT_TRUE(pong2.ok());
    EXPECT_EQ(pong2->id, pong.id);
    EXPECT_TRUE(StatusEq(pong2->status, pong.status));
    EXPECT_EQ(pong2->stats.submitted, pong.stats.submitted);
    EXPECT_EQ(pong2->stats.rejected, pong.stats.rejected);
    EXPECT_EQ(pong2->stats.answered, pong.stats.answered);
    EXPECT_EQ(pong2->stats.batches, pong.stats.batches);
    EXPECT_EQ(pong2->stats.profile_sweeps, pong.stats.profile_sweeps);
    EXPECT_EQ(pong2->stats.per_bucket_sweeps, pong.stats.per_bucket_sweeps);
    EXPECT_EQ(pong2->stats.snapshot_reloads, pong.stats.snapshot_reloads);
    EXPECT_EQ(pong2->stats.publishes, pong.stats.publishes);
    EXPECT_EQ(pong2->stats.tenants, pong.stats.tenants);
  }
}

TEST(ShardWireFuzzTest, EveryTruncationOfAValidFrameIsRejected) {
  const uint64_t seed = testing::TestSeed(20260805);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  WirePublishRequest pub;
  pub.id = rng.NextUint64();
  pub.tenant = "gold";
  pub.snapshot = RandomSnapshot(&rng, 7);
  const std::vector<uint8_t> buffer =
      EncodeFrame(WireType::kPublishRequest, EncodePublishRequest(pub));
  for (size_t len = 0; len < buffer.size(); ++len) {
    const std::vector<uint8_t> prefix(buffer.begin(), buffer.begin() + len);
    EXPECT_FALSE(DecodeFrame(prefix).ok()) << "prefix of " << len << " bytes";
  }
}

TEST(ShardWireFuzzTest, BitFlippedFramesAreRejected) {
  const uint64_t seed = testing::TestSeed(20260806);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  const size_t iters = TestIters(400);
  WireQueryRequest req;
  req.id = 42;
  req.query = testing::RandomQuery(&rng, "std");
  const std::vector<uint8_t> clean =
      EncodeFrame(WireType::kQueryRequest, EncodeQueryRequest(req));
  ASSERT_TRUE(DecodeFrame(clean).ok());
  for (size_t i = 0; i < iters; ++i) {
    std::vector<uint8_t> mutant = clean;
    const size_t flips = 1 + rng.NextBelow(8);
    for (size_t f = 0; f < flips; ++f) {
      const size_t bit = rng.NextBelow(mutant.size() * 8);
      mutant[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
    // The checksum covers header[0..12) and the whole payload, so any
    // corruption must surface as a Status (seeded: deterministic verdict),
    // from a buffer and from a socket alike.
    const auto frame = DecodeFrame(mutant);
    auto [sender, receiver] = UnixSocket::Pair().value();
    ASSERT_TRUE(sender.SendAll(mutant).ok());
    sender.Close();
    const auto received = FrameReader(&receiver).Next();
    if (mutant != clean) {
      EXPECT_FALSE(frame.ok()) << "flips=" << flips << " iter=" << i;
      EXPECT_FALSE(received.ok()) << "flips=" << flips << " iter=" << i;
    }
  }
}

TEST(ShardWireFuzzTest, CorruptHeadersAreRejected) {
  WirePingRequest ping;
  ping.id = 9;
  const std::vector<uint8_t> clean =
      EncodeFrame(WireType::kPingRequest, EncodePingRequest(ping));

  std::vector<uint8_t> bad_magic = clean;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(DecodeFrame(bad_magic).ok());

  std::vector<uint8_t> bad_version = clean;
  bad_version[4] = kWireVersion + 1;
  EXPECT_FALSE(DecodeFrame(bad_version).ok());

  std::vector<uint8_t> bad_type = clean;
  // 0 is below every WireType, 13 above; 11 and 12 were the shutdown pair.
  for (const uint8_t type : {0, 11, 12, 13}) {
    bad_type[5] = type;
    EXPECT_FALSE(DecodeFrame(bad_type).ok()) << "type byte " << int{type};
  }

  std::vector<uint8_t> bad_reserved = clean;
  bad_reserved[6] = 0x5A;
  EXPECT_FALSE(DecodeFrame(bad_reserved).ok());

  std::vector<uint8_t> bad_length = clean;
  bad_length[8] ^= 0x01;  // payload_len no longer matches the buffer
  EXPECT_FALSE(DecodeFrame(bad_length).ok());
}

TEST(ShardWireFuzzTest, FrameReaderCutsFramesFromAnyChunking) {
  // Seeded frames of every type, plus one publish longer than the reader's
  // buffer, written in random chunks from 1 byte up to the whole stream:
  // the reader returns the same frames in order, however recv splits them.
  // The small frames span several buffers, so bursts end mid-frame even
  // when the writer runs ahead of the reader.
  const uint64_t seed = testing::TestSeed(20260809);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  const size_t iters = TestIters(4);
  for (size_t iter = 0; iter < iters; ++iter) {
    std::vector<WireFrame> frames;
    for (size_t bytes = 0; bytes < 3 * FrameReader::kBufferSize;) {
      frames.push_back(RandomFrame(&rng));
      bytes += kWireHeaderSize + frames.back().payload.size();
    }
    WirePublishRequest big;
    big.id = rng.NextUint64();
    big.tenant = RandomTenant(&rng);
    big.snapshot = RandomSnapshot(&rng, 1, 3000, 4);
    WireFrame big_frame{WireType::kPublishRequest, EncodePublishRequest(big)};
    ASSERT_GT(big_frame.payload.size(), FrameReader::kBufferSize);
    frames.insert(frames.begin() + rng.NextBelow(frames.size() + 1),
                  std::move(big_frame));
    const std::vector<uint8_t> stream = Concatenate(frames);

    auto [sender, receiver] = UnixSocket::Pair().value();
    const uint64_t chunk_seed = rng.NextUint64();
    std::thread writer([&stream, &sender = sender, chunk_seed] {
      Rng chunks(chunk_seed);
      for (size_t at = 0; at < stream.size();) {
        // Mostly short writes that cut headers and payloads; now and then
        // up to the whole remainder.
        const size_t left = stream.size() - at;
        const size_t n = 1 + chunks.NextBelow(chunks.NextBelow(4) == 0
                                                  ? left
                                                  : std::min<size_t>(left, 64));
        if (!sender.SendAll(stream.data() + at, n).ok()) return;
        at += n;
      }
      sender.Shutdown();
    });
    FrameReader reader(&receiver);
    std::vector<StatusOr<WireFrame>> read;
    do {
      read.push_back(reader.Next());
    } while (read.back().ok());
    receiver.Shutdown();  // unblocks the writer if the reader stopped early
    writer.join();

    ASSERT_EQ(read.size(), frames.size() + 1) << read.back().status();
    for (size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(read[i]->type, frames[i].type) << "frame " << i;
      EXPECT_EQ(read[i]->payload, frames[i].payload) << "frame " << i;
    }
    EXPECT_NE(read.back().status().message().find("connection closed"),
              std::string::npos)
        << read.back().status();
  }
}

TEST(ShardWireFuzzTest, FrameReaderReturnsEveryWholeFrameBeforeACut) {
  // A short stream cut at every byte boundary and closed: each whole frame
  // before the cut comes back, then the close, as an IOError.
  const uint64_t seed = testing::TestSeed(20260810);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  std::vector<WireFrame> frames;
  for (size_t i = 0; i < 4; ++i) frames.push_back(RandomFrame(&rng));
  const std::vector<uint8_t> stream = Concatenate(frames);
  std::vector<size_t> ends;
  size_t end = 0;
  for (const WireFrame& frame : frames) {
    end += kWireHeaderSize + frame.payload.size();
    ends.push_back(end);
  }
  for (size_t cut = 0; cut <= stream.size(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    auto [sender, receiver] = UnixSocket::Pair().value();
    ASSERT_TRUE(sender.SendAll(stream.data(), cut).ok());
    sender.Close();
    FrameReader reader(&receiver);
    for (size_t i = 0; i < frames.size() && ends[i] <= cut; ++i) {
      const auto frame = reader.Next();
      ASSERT_TRUE(frame.ok()) << frame.status();
      EXPECT_EQ(frame->type, frames[i].type);
      EXPECT_EQ(frame->payload, frames[i].payload);
    }
    const auto closed = reader.Next();
    ASSERT_FALSE(closed.ok());
    EXPECT_EQ(closed.status().code(), StatusCode::kIOError);
    EXPECT_NE(closed.status().message().find("connection closed"),
              std::string::npos)
        << closed.status();
  }
}

TEST(ShardWireFuzzTest, OversizedDeclaredPayloadIsRejectedWithoutAllocating) {
  // Frame whose header claims kMaxWirePayload + 1 bytes. DecodeFrame must
  // reject it, and FrameReader must reject it from the length field alone —
  // before trusting it enough to allocate 256 MiB or wait for the bytes.
  std::vector<uint8_t> hostile(kWireHeaderSize, 0);
  hostile[0] = 0x43; hostile[1] = 0x4B; hostile[2] = 0x57; hostile[3] = 0x46;
  hostile[4] = kWireVersion;
  hostile[5] = static_cast<uint8_t>(WireType::kPingRequest);
  const uint32_t huge = kMaxWirePayload + 1;
  std::memcpy(&hostile[8], &huge, sizeof(huge));
  EXPECT_FALSE(DecodeFrame(hostile).ok());

  auto [sender, receiver] = UnixSocket::Pair().value();
  ASSERT_TRUE(sender.SendAll(hostile).ok());
  sender.Shutdown();
  const auto frame = FrameReader(&receiver).Next();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument)
      << frame.status();
}

TEST(ShardWireFuzzTest, RandomHostilePayloadsNeverCrashAnyDecoder) {
  const uint64_t seed = testing::TestSeed(20260807);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  const size_t iters = TestIters(2000);
  for (size_t i = 0; i < iters; ++i) {
    const std::vector<uint8_t> payload =
        RandomBytes(&rng, rng.NextBelow(256));
    // Each decoder either parses it or returns a reasoned Status;
    // crashing or allocating absurdly (ASan/OOM would catch both) fails
    // the test, and a rejection must carry a diagnosable message.
    const auto check = [&](const auto& result) {
      if (!result.ok()) {
        EXPECT_FALSE(result.status().message().empty())
            << "rejection with no diagnostic";
      }
    };
    check(DecodeQueryRequest(payload));
    check(DecodeQueryResponse(payload));
    check(DecodePublishRequest(payload));
    check(DecodePublishResponse(payload));
    check(DecodeHandoffRequest(payload));
    check(DecodeHandoffResponse(payload));
    check(DecodeDropRequest(payload));
    check(DecodeDropResponse(payload));
    check(DecodePingRequest(payload));
    check(DecodePingResponse(payload));
  }
}

TEST(ShardWireFuzzTest, TruncatedSnapshotPayloadsNeverCrash) {
  const uint64_t seed = testing::TestSeed(20260808);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  WirePublishRequest pub;
  pub.id = 1;
  pub.tenant = "gold";
  pub.snapshot = RandomSnapshot(&rng, 3, 4, 3);
  const std::vector<uint8_t> payload = EncodePublishRequest(pub);
  // Every prefix: either a clean parse (impossible for strict lengths) or
  // a Status — never a crash or an over-read.
  for (size_t len = 0; len < payload.size(); ++len) {
    const std::vector<uint8_t> prefix(payload.begin(), payload.begin() + len);
    EXPECT_FALSE(DecodePublishRequest(prefix).ok())
        << "prefix of " << len << " bytes parsed";
  }
}

}  // namespace
}  // namespace cksafe
