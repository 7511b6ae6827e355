// The fleet's framed wire protocol: length-prefixed, checksummed,
// versioned binary messages over local stream sockets.
//
// Every message travels as one frame:
//
//   offset  size  field
//   0       4     magic 0x43_4b_57_46 ("FWKC" little-endian; reads "CKWF")
//   4       1     protocol version (kWireVersion)
//   5       1     message type (WireType)
//   6       2     reserved, must be 0
//   8       4     payload length in bytes (<= kMaxWirePayload)
//   12      8     FNV-1a 64 checksum over bytes [0, 12) + the payload
//   20      n     payload (ByteWriter little-endian encoding)
//
// The codec layer is deliberately separable from sockets: EncodeFrame /
// DecodeFrame operate on byte buffers, which is what the fuzz harness
// round-trips and mutates without any IO; SendFrame and FrameReader are
// the socket adapters sharing the exact same validation. Every encoder
// sizes its buffer up front and allocates it once. Decoding NEVER trusts
// a length before bounding it — a hostile or corrupt frame surfaces as
// InvalidArgument/IOError, not an allocation bomb or a crash (the
// shard_wire_fuzz_test contract).
//
// Doubles (query thresholds, disclosure answers) travel as IEEE-754 bit
// patterns via ByteWriter::PutDouble, extending the project's bit-identity
// discipline across the process boundary: the answer a router hands the
// client is bit-for-bit the answer the shard's DisclosureAnalyzer
// computed. Snapshots are encoded self-contained (inline labels, no
// LabelDictionary state), so one PublishRequest is meaningful regardless
// of what the receiving shard has seen before — the property live tenant
// migration leans on.

#ifndef CKSAFE_SHARD_WIRE_H_
#define CKSAFE_SHARD_WIRE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cksafe/serve/query_router.h"
#include "cksafe/serve/release_snapshot.h"
#include "cksafe/util/page_io.h"
#include "cksafe/util/socket.h"
#include "cksafe/util/status.h"

namespace cksafe {

inline constexpr uint32_t kWireMagic = 0x46574b43u;  // "CKWF" in LE bytes
inline constexpr uint8_t kWireVersion = 1;
inline constexpr size_t kWireHeaderSize = 20;
/// Hard payload ceiling: large enough for a multi-million-row snapshot,
/// small enough that a fuzzed length field cannot drive allocation.
inline constexpr uint32_t kMaxWirePayload = 1u << 28;  // 256 MiB

/// Message types. Request/response pairs share an `id` chosen by the
/// sender; responses may arrive out of submission order (the shard answers
/// queries as its router batches complete), so the id is the correlator.
/// No message stops a shard: the end of its link does (shard_server.h).
enum class WireType : uint8_t {
  kQueryRequest = 1,
  kQueryResponse = 2,
  kPublishRequest = 3,
  kPublishResponse = 4,
  kHandoffRequest = 5,   ///< migration: ship a tenant's snapshot history
  kHandoffResponse = 6,
  kDropRequest = 7,      ///< migration: forget a tenant after handoff
  kDropResponse = 8,
  kPingRequest = 9,      ///< liveness + stats scrape
  kPingResponse = 10,
};

/// One decoded frame: type + raw payload, checksum already verified.
struct WireFrame {
  WireType type = WireType::kQueryRequest;
  std::vector<uint8_t> payload;
};

// ---------------------------------------------------------------------------
// Message structs. Every struct is plain data; Encode* returns the payload
// bytes (frame it with EncodeFrame), Decode* validates exhaustively.

struct WireQueryRequest {
  uint64_t id = 0;
  Query query;
};

/// status non-OK => answer is meaningless (per-query serving errors — the
/// unknown tenant, the out-of-range bucket — travel back as a code +
/// message, exactly like the in-process future would carry).
struct WireQueryResponse {
  uint64_t id = 0;
  Status status = Status::OK();
  QueryAnswer answer;
};

struct WirePublishRequest {
  uint64_t id = 0;
  std::string tenant;
  /// The snapshot, explicit sequence included: the shard ADOPTS it (no
  /// sequence reassignment), which is what keeps sequences stable across
  /// migration.
  std::shared_ptr<const ReleaseSnapshot> snapshot;
};

struct WirePublishResponse {
  uint64_t id = 0;
  Status status = Status::OK();
  uint64_t sequence = 0;  ///< echoed adopted sequence when OK
};

struct WireHandoffRequest {
  uint64_t id = 0;
  std::string tenant;
};

/// The tenant's full publish history, ascending sequence. Full, not just
/// latest: a durable migration target must replay sequences contiguously
/// from 1 (DurableStore's AppendPublish contract), and the differential
/// tests replay answers against historical sequences.
struct WireHandoffResponse {
  uint64_t id = 0;
  Status status = Status::OK();
  std::vector<std::shared_ptr<const ReleaseSnapshot>> snapshots;
};

struct WireDropRequest {
  uint64_t id = 0;
  std::string tenant;
};

struct WireDropResponse {
  uint64_t id = 0;
  Status status = Status::OK();
};

struct WirePingRequest {
  uint64_t id = 0;
};

/// RouterStats snapshot + shard-side gauges, for per-shard fleet reports.
struct WireShardStats {
  uint64_t submitted = 0;
  uint64_t rejected = 0;
  uint64_t answered = 0;
  uint64_t batches = 0;
  uint64_t profile_sweeps = 0;
  uint64_t per_bucket_sweeps = 0;
  uint64_t snapshot_reloads = 0;
  uint64_t publishes = 0;  ///< adopted publishes since shard start
  uint64_t tenants = 0;    ///< tenants currently registered
};

struct WirePingResponse {
  uint64_t id = 0;
  Status status = Status::OK();
  WireShardStats stats;
};

// ---------------------------------------------------------------------------
// Frame layer.

/// Wraps a payload in a checksummed header, in one buffer allocated once.
/// CHECK-fails on payloads over kMaxWirePayload (a programming error on
/// the send side, not input).
std::vector<uint8_t> EncodeFrame(WireType type,
                                 const std::vector<uint8_t>& payload);

/// Validates and strips the header of a complete frame buffer. Rejects bad
/// magic/version/type/reserved bits, length disagreeing with the buffer,
/// oversized lengths, and checksum mismatches — all as InvalidArgument.
StatusOr<WireFrame> DecodeFrame(const std::vector<uint8_t>& buffer);

/// Encodes the frame and writes it whole.
Status SendFrame(UnixSocket* socket, WireType type,
                 const std::vector<uint8_t>& payload);

/// Reads the frames one socket carries, with DecodeFrame's validation,
/// through a fixed kBufferSize-byte buffer: each recv takes whatever the
/// peer has written, so a burst of small frames costs one syscall, and
/// frames are cut from the buffer. A header's length is bounded BEFORE
/// anything is allocated for it, and a frame longer than the buffer is
/// read straight into its own payload, which grows with the bytes that
/// arrive: a link holds at most the buffer plus twice the bytes received
/// of the frame being read. The reader may hold bytes of frames it has
/// not returned yet: it must be the socket's only reader, on one thread.
class FrameReader {
 public:
  static constexpr size_t kBufferSize = size_t{64} << 10;

  /// `socket` must outlive the reader.
  explicit FrameReader(UnixSocket* socket);

  /// The next frame, checksum verified. A peer close — between frames or
  /// inside one — is an IOError whose message contains "connection
  /// closed"; a malformed header or a checksum mismatch is
  /// InvalidArgument. After any error the link is unusable.
  StatusOr<WireFrame> Next();

 private:
  /// Receives until at least `need` (<= kBufferSize) bytes are buffered.
  Status Fill(size_t need);

  UnixSocket* socket_;
  std::vector<uint8_t> buffer_;
  size_t begin_ = 0;  ///< first byte not yet returned
  size_t end_ = 0;    ///< one past the last byte received
};

// ---------------------------------------------------------------------------
// Payload codecs (payload bytes only; frame separately).

std::vector<uint8_t> EncodeQueryRequest(const WireQueryRequest& msg);
StatusOr<WireQueryRequest> DecodeQueryRequest(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeQueryResponse(const WireQueryResponse& msg);
StatusOr<WireQueryResponse> DecodeQueryResponse(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodePublishRequest(const WirePublishRequest& msg);
StatusOr<WirePublishRequest> DecodePublishRequest(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodePublishResponse(const WirePublishResponse& msg);
StatusOr<WirePublishResponse> DecodePublishResponse(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeHandoffRequest(const WireHandoffRequest& msg);
StatusOr<WireHandoffRequest> DecodeHandoffRequest(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeHandoffResponse(const WireHandoffResponse& msg);
StatusOr<WireHandoffResponse> DecodeHandoffResponse(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeDropRequest(const WireDropRequest& msg);
StatusOr<WireDropRequest> DecodeDropRequest(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeDropResponse(const WireDropResponse& msg);
StatusOr<WireDropResponse> DecodeDropResponse(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodePingRequest(const WirePingRequest& msg);
StatusOr<WirePingRequest> DecodePingRequest(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodePingResponse(const WirePingResponse& msg);
StatusOr<WirePingResponse> DecodePingResponse(const std::vector<uint8_t>& payload);

/// Self-contained snapshot codec (inline labels), shared by the publish
/// and handoff messages. Decode enforces the dense-partition invariant —
/// every member id below the total member count — so a hostile frame
/// cannot drive Bucketization's person-indexed table to absurd sizes.
void EncodeSnapshotInline(const ReleaseSnapshot& snapshot, ByteWriter* writer);
StatusOr<std::shared_ptr<const ReleaseSnapshot>> DecodeSnapshotInline(
    ByteReader* reader);

}  // namespace cksafe

#endif  // CKSAFE_SHARD_WIRE_H_
