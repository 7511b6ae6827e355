#include "cksafe/shard/wire.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "cksafe/util/check.h"
#include "cksafe/util/string_util.h"

namespace cksafe {
namespace {

// ---------------------------------------------------------------------------
// Header plumbing shared by the buffer and socket paths.

struct FrameHeader {
  WireType type = WireType::kQueryRequest;
  uint32_t payload_len = 0;
  uint64_t checksum = 0;
};

bool ValidWireType(uint8_t type) {
  return type >= static_cast<uint8_t>(WireType::kQueryRequest) &&
         type <= static_cast<uint8_t>(WireType::kPingResponse);
}

/// Parses and validates the fixed 20-byte header (everything except the
/// checksum match, which needs the payload).
StatusOr<FrameHeader> ParseHeader(const uint8_t* data) {
  ByteReader reader(data, kWireHeaderSize);
  CKSAFE_ASSIGN_OR_RETURN(const uint32_t magic, reader.U32());
  if (magic != kWireMagic) {
    return Status::InvalidArgument(
        StrFormat("bad frame magic 0x%08x", magic));
  }
  CKSAFE_ASSIGN_OR_RETURN(const uint8_t version, reader.U8());
  if (version != kWireVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported wire version %u (speak %u)", version,
                  kWireVersion));
  }
  CKSAFE_ASSIGN_OR_RETURN(const uint8_t type, reader.U8());
  if (!ValidWireType(type)) {
    return Status::InvalidArgument(StrFormat("unknown message type %u", type));
  }
  CKSAFE_ASSIGN_OR_RETURN(const uint16_t reserved, reader.U16());
  if (reserved != 0) {
    return Status::InvalidArgument(
        StrFormat("reserved header bits set (0x%04x)", reserved));
  }
  CKSAFE_ASSIGN_OR_RETURN(const uint32_t payload_len, reader.U32());
  if (payload_len > kMaxWirePayload) {
    // The length is bounded BEFORE anyone allocates a payload buffer: an
    // attacker-controlled length field must not become an allocation.
    return Status::InvalidArgument(
        StrFormat("payload length %u exceeds cap %u", payload_len,
                  kMaxWirePayload));
  }
  CKSAFE_ASSIGN_OR_RETURN(const uint64_t checksum, reader.U64());
  FrameHeader header;
  header.type = static_cast<WireType>(type);
  header.payload_len = payload_len;
  header.checksum = checksum;
  return header;
}

uint64_t FrameChecksum(const uint8_t* header12, const uint8_t* payload,
                       size_t payload_len) {
  const uint64_t seed = Fnv1a64(header12, 12);
  return Fnv1a64(payload, payload_len, seed);
}

Status VerifyChecksum(const FrameHeader& header, const uint8_t* header12,
                      const uint8_t* payload) {
  const uint64_t expect =
      FrameChecksum(header12, payload, header.payload_len);
  if (expect != header.checksum) {
    return Status::InvalidArgument(
        StrFormat("frame checksum mismatch (stored %016llx, computed %016llx)",
                  static_cast<unsigned long long>(header.checksum),
                  static_cast<unsigned long long>(expect)));
  }
  return Status::OK();
}

// Encoded sizes, so each encoder allocates its buffer once.

size_t StringSize(std::string_view s) { return 4 + s.size(); }

size_t StatusSize(const Status& status) {
  return 1 + StringSize(status.message());
}

size_t QuerySize(const Query& query) {
  return StringSize(query.tenant) + 1 + 8 + 8 + 8;
}

constexpr size_t kAnswerSize = 8 + 1 + 8 + 8 + 8;

size_t SnapshotInlineSize(const ReleaseSnapshot& snapshot) {
  size_t size = 8 + 8 + 4 + 4 * snapshot.node.size() + 8 + 4;
  for (const Bucket& bucket : snapshot.bucketization.buckets()) {
    size += StringSize(bucket.qi_label) + 4 + 4 * bucket.members.size() +
            4 * bucket.histogram.size();
  }
  return size;
}

// ---------------------------------------------------------------------------
// Field codecs.

void EncodeStatus(const Status& status, ByteWriter* writer) {
  writer->PutU8(static_cast<uint8_t>(status.code()));
  writer->PutString(status.message());
}

Status DecodeStatus(ByteReader* reader, Status* out) {
  CKSAFE_ASSIGN_OR_RETURN(const uint8_t code, reader->U8());
  if (code > static_cast<uint8_t>(StatusCode::kUnavailable)) {
    return Status::InvalidArgument(StrFormat("unknown status code %u", code));
  }
  CKSAFE_ASSIGN_OR_RETURN(std::string message, reader->String());
  *out = Status(static_cast<StatusCode>(code), std::move(message));
  return Status::OK();
}

void EncodeQuery(const Query& query, ByteWriter* writer) {
  writer->PutString(query.tenant);
  writer->PutU8(static_cast<uint8_t>(query.kind));
  writer->PutDouble(query.c);
  writer->PutU64(query.k);
  writer->PutU64(query.bucket);
}

Status DecodeQuery(ByteReader* reader, Query* out) {
  CKSAFE_ASSIGN_OR_RETURN(out->tenant, reader->String());
  CKSAFE_ASSIGN_OR_RETURN(const uint8_t kind, reader->U8());
  if (kind > static_cast<uint8_t>(QueryKind::kPerBucket)) {
    return Status::InvalidArgument(StrFormat("unknown query kind %u", kind));
  }
  out->kind = static_cast<QueryKind>(kind);
  CKSAFE_ASSIGN_OR_RETURN(out->c, reader->Double());
  CKSAFE_ASSIGN_OR_RETURN(const uint64_t k, reader->U64());
  CKSAFE_ASSIGN_OR_RETURN(const uint64_t bucket, reader->U64());
  out->k = static_cast<size_t>(k);
  out->bucket = static_cast<size_t>(bucket);
  return Status::OK();
}

void EncodeAnswer(const QueryAnswer& answer, ByteWriter* writer) {
  writer->PutU64(answer.snapshot_sequence);
  writer->PutU8(answer.safe ? 1 : 0);
  writer->PutDouble(answer.disclosure);
  writer->PutDouble(answer.negation);
  writer->PutDouble(answer.log_r);
}

Status DecodeAnswer(ByteReader* reader, QueryAnswer* out) {
  CKSAFE_ASSIGN_OR_RETURN(out->snapshot_sequence, reader->U64());
  CKSAFE_ASSIGN_OR_RETURN(const uint8_t safe, reader->U8());
  if (safe > 1) {
    return Status::InvalidArgument(StrFormat("non-boolean safe byte %u", safe));
  }
  out->safe = safe == 1;
  CKSAFE_ASSIGN_OR_RETURN(out->disclosure, reader->Double());
  CKSAFE_ASSIGN_OR_RETURN(out->negation, reader->Double());
  CKSAFE_ASSIGN_OR_RETURN(out->log_r, reader->Double());
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Frame layer.

std::vector<uint8_t> EncodeFrame(WireType type,
                                 const std::vector<uint8_t>& payload) {
  CKSAFE_CHECK_LE(payload.size(), size_t{kMaxWirePayload})
      << "oversized frame payload is a sender bug";
  ByteWriter frame(kWireHeaderSize + payload.size());
  frame.PutU32(kWireMagic);
  frame.PutU8(kWireVersion);
  frame.PutU8(static_cast<uint8_t>(type));
  frame.PutU16(0);  // reserved
  frame.PutU32(static_cast<uint32_t>(payload.size()));
  frame.PutU64(
      FrameChecksum(frame.bytes().data(), payload.data(), payload.size()));
  frame.PutBytes(payload.data(), payload.size());
  return frame.Release();
}

StatusOr<WireFrame> DecodeFrame(const std::vector<uint8_t>& buffer) {
  if (buffer.size() < kWireHeaderSize) {
    return Status::InvalidArgument(
        StrFormat("frame truncated: %zu bytes < %zu-byte header",
                  buffer.size(), kWireHeaderSize));
  }
  CKSAFE_ASSIGN_OR_RETURN(const FrameHeader header, ParseHeader(buffer.data()));
  const size_t body = buffer.size() - kWireHeaderSize;
  if (body != header.payload_len) {
    return Status::InvalidArgument(
        StrFormat("frame length %u disagrees with the %zu payload bytes "
                  "present",
                  header.payload_len, body));
  }
  CKSAFE_RETURN_IF_ERROR(
      VerifyChecksum(header, buffer.data(), buffer.data() + kWireHeaderSize));
  WireFrame frame;
  frame.type = header.type;
  frame.payload.assign(buffer.begin() + kWireHeaderSize, buffer.end());
  return frame;
}

Status SendFrame(UnixSocket* socket, WireType type,
                 const std::vector<uint8_t>& payload) {
  return socket->SendAll(EncodeFrame(type, payload));
}

FrameReader::FrameReader(UnixSocket* socket)
    : socket_(socket), buffer_(kBufferSize) {}

Status FrameReader::Fill(size_t need) {
  if (end_ - begin_ >= need) return Status::OK();
  // Move the partial frame to the front so each recv has the most room.
  std::memmove(buffer_.data(), buffer_.data() + begin_, end_ - begin_);
  end_ -= begin_;
  begin_ = 0;
  while (end_ < need) {
    CKSAFE_ASSIGN_OR_RETURN(
        const size_t got,
        socket_->RecvSome(buffer_.data() + end_, buffer_.size() - end_));
    end_ += got;
  }
  return Status::OK();
}

StatusOr<WireFrame> FrameReader::Next() {
  CKSAFE_RETURN_IF_ERROR(Fill(kWireHeaderSize));
  uint8_t header_bytes[kWireHeaderSize];
  std::memcpy(header_bytes, buffer_.data() + begin_, kWireHeaderSize);
  begin_ += kWireHeaderSize;
  CKSAFE_ASSIGN_OR_RETURN(const FrameHeader header, ParseHeader(header_bytes));
  const size_t length = header.payload_len;  // bounded by ParseHeader
  WireFrame frame;
  frame.type = header.type;
  if (length <= kBufferSize) {
    CKSAFE_RETURN_IF_ERROR(Fill(length));
    frame.payload.assign(buffer_.data() + begin_,
                         buffer_.data() + begin_ + length);
    begin_ += length;
  } else {
    // Everything buffered belongs to this frame; the rest bypasses the
    // buffer. The payload at most doubles ahead of the bytes received, so
    // a length the peer never sends is never allocated.
    frame.payload.assign(buffer_.data() + begin_, buffer_.data() + end_);
    begin_ = end_ = 0;
    for (size_t got = frame.payload.size(); got < length;) {
      frame.payload.resize(std::min(length, std::max(2 * got, kBufferSize)));
      while (got < frame.payload.size()) {
        CKSAFE_ASSIGN_OR_RETURN(
            const size_t n,
            socket_->RecvSome(frame.payload.data() + got,
                              frame.payload.size() - got));
        got += n;
      }
    }
  }
  CKSAFE_RETURN_IF_ERROR(
      VerifyChecksum(header, header_bytes, frame.payload.data()));
  return frame;
}

// ---------------------------------------------------------------------------
// Snapshot codec.

void EncodeSnapshotInline(const ReleaseSnapshot& snapshot, ByteWriter* writer) {
  writer->PutU64(snapshot.sequence);
  writer->PutU64(snapshot.num_rows);
  writer->PutU32(static_cast<uint32_t>(snapshot.node.size()));
  for (const int level : snapshot.node) writer->PutI32(level);
  const Bucketization& buckets = snapshot.bucketization;
  writer->PutU64(buckets.sensitive_domain_size());
  writer->PutU32(static_cast<uint32_t>(buckets.num_buckets()));
  for (const Bucket& bucket : buckets.buckets()) {
    writer->PutString(bucket.qi_label);
    writer->PutU32(static_cast<uint32_t>(bucket.members.size()));
    for (const PersonId member : bucket.members) writer->PutU32(member);
    for (const uint32_t count : bucket.histogram) writer->PutU32(count);
  }
}

StatusOr<std::shared_ptr<const ReleaseSnapshot>> DecodeSnapshotInline(
    ByteReader* reader) {
  auto snapshot = std::make_shared<ReleaseSnapshot>();
  CKSAFE_ASSIGN_OR_RETURN(snapshot->sequence, reader->U64());
  if (snapshot->sequence == 0) {
    return Status::InvalidArgument("snapshot sequence 0 is reserved");
  }
  CKSAFE_ASSIGN_OR_RETURN(const uint64_t num_rows, reader->U64());
  snapshot->num_rows = static_cast<size_t>(num_rows);
  CKSAFE_ASSIGN_OR_RETURN(const uint32_t node_size, reader->U32());
  CKSAFE_RETURN_IF_ERROR(BoundCount(*reader, node_size, 4, "lattice node",
                                    StatusCode::kInvalidArgument));
  snapshot->node.reserve(node_size);
  for (uint32_t i = 0; i < node_size; ++i) {
    CKSAFE_ASSIGN_OR_RETURN(const int32_t level, reader->I32());
    snapshot->node.push_back(level);
  }
  CKSAFE_ASSIGN_OR_RETURN(const uint64_t domain, reader->U64());
  CKSAFE_ASSIGN_OR_RETURN(const uint32_t num_buckets, reader->U32());
  // Two-pass decode: buckets are materialized first so the dense-partition
  // invariant (member ids < total members) can be enforced against the
  // complete total, THEN handed to Bucketization, whose person-indexed
  // table is thereby bounded by the payload size instead of by whatever
  // 32-bit id a hostile frame carries.
  std::vector<Bucket> staged;
  staged.reserve(std::min<size_t>(num_buckets, 1024));
  uint64_t total_members = 0;
  for (uint32_t b = 0; b < num_buckets; ++b) {
    Bucket bucket;
    CKSAFE_ASSIGN_OR_RETURN(bucket.qi_label, reader->String());
    CKSAFE_ASSIGN_OR_RETURN(const uint32_t member_count, reader->U32());
    CKSAFE_RETURN_IF_ERROR(BoundCount(*reader, member_count, 4, "member",
                                      StatusCode::kInvalidArgument));
    bucket.members.reserve(member_count);
    for (uint32_t i = 0; i < member_count; ++i) {
      CKSAFE_ASSIGN_OR_RETURN(const uint32_t member, reader->U32());
      bucket.members.push_back(member);
    }
    CKSAFE_RETURN_IF_ERROR(BoundCount(*reader, domain, 4, "histogram",
                                      StatusCode::kInvalidArgument));
    bucket.histogram.reserve(static_cast<size_t>(domain));
    for (uint64_t s = 0; s < domain; ++s) {
      CKSAFE_ASSIGN_OR_RETURN(const uint32_t count, reader->U32());
      bucket.histogram.push_back(count);
    }
    total_members += member_count;
    staged.push_back(std::move(bucket));
  }
  Bucketization bucketization(static_cast<size_t>(domain));
  for (Bucket& bucket : staged) {
    for (const PersonId member : bucket.members) {
      if (member >= total_members) {
        return Status::InvalidArgument(
            StrFormat("member id %u outside the dense partition of %llu "
                      "tuples",
                      member, static_cast<unsigned long long>(total_members)));
      }
    }
    // AddBucket re-validates histogram totals and membership disjointness;
    // its errors propagate as the decode error.
    CKSAFE_RETURN_IF_ERROR(bucketization.AddBucket(std::move(bucket)));
  }
  snapshot->bucketization = std::move(bucketization);
  return std::shared_ptr<const ReleaseSnapshot>(std::move(snapshot));
}

// ---------------------------------------------------------------------------
// Message codecs.

std::vector<uint8_t> EncodeQueryRequest(const WireQueryRequest& msg) {
  ByteWriter writer(8 + QuerySize(msg.query));
  writer.PutU64(msg.id);
  EncodeQuery(msg.query, &writer);
  return writer.Release();
}

StatusOr<WireQueryRequest> DecodeQueryRequest(
    const std::vector<uint8_t>& payload) {
  ByteReader reader(payload);
  WireQueryRequest msg;
  CKSAFE_ASSIGN_OR_RETURN(msg.id, reader.U64());
  CKSAFE_RETURN_IF_ERROR(DecodeQuery(&reader, &msg.query));
  if (!reader.exhausted()) {
    return Status::InvalidArgument("trailing bytes after query request");
  }
  return msg;
}

std::vector<uint8_t> EncodeQueryResponse(const WireQueryResponse& msg) {
  ByteWriter writer(8 + StatusSize(msg.status) + kAnswerSize);
  writer.PutU64(msg.id);
  EncodeStatus(msg.status, &writer);
  EncodeAnswer(msg.answer, &writer);
  return writer.Release();
}

StatusOr<WireQueryResponse> DecodeQueryResponse(
    const std::vector<uint8_t>& payload) {
  ByteReader reader(payload);
  WireQueryResponse msg;
  CKSAFE_ASSIGN_OR_RETURN(msg.id, reader.U64());
  CKSAFE_RETURN_IF_ERROR(DecodeStatus(&reader, &msg.status));
  CKSAFE_RETURN_IF_ERROR(DecodeAnswer(&reader, &msg.answer));
  if (!reader.exhausted()) {
    return Status::InvalidArgument("trailing bytes after query response");
  }
  return msg;
}

std::vector<uint8_t> EncodePublishRequest(const WirePublishRequest& msg) {
  CKSAFE_CHECK(msg.snapshot != nullptr);
  ByteWriter writer(8 + StringSize(msg.tenant) +
                    SnapshotInlineSize(*msg.snapshot));
  writer.PutU64(msg.id);
  writer.PutString(msg.tenant);
  EncodeSnapshotInline(*msg.snapshot, &writer);
  return writer.Release();
}

StatusOr<WirePublishRequest> DecodePublishRequest(
    const std::vector<uint8_t>& payload) {
  ByteReader reader(payload);
  WirePublishRequest msg;
  CKSAFE_ASSIGN_OR_RETURN(msg.id, reader.U64());
  CKSAFE_ASSIGN_OR_RETURN(msg.tenant, reader.String());
  if (msg.tenant.empty()) {
    return Status::InvalidArgument("publish with empty tenant name");
  }
  CKSAFE_ASSIGN_OR_RETURN(msg.snapshot, DecodeSnapshotInline(&reader));
  if (!reader.exhausted()) {
    return Status::InvalidArgument("trailing bytes after publish request");
  }
  return msg;
}

std::vector<uint8_t> EncodePublishResponse(const WirePublishResponse& msg) {
  ByteWriter writer(8 + StatusSize(msg.status) + 8);
  writer.PutU64(msg.id);
  EncodeStatus(msg.status, &writer);
  writer.PutU64(msg.sequence);
  return writer.Release();
}

StatusOr<WirePublishResponse> DecodePublishResponse(
    const std::vector<uint8_t>& payload) {
  ByteReader reader(payload);
  WirePublishResponse msg;
  CKSAFE_ASSIGN_OR_RETURN(msg.id, reader.U64());
  CKSAFE_RETURN_IF_ERROR(DecodeStatus(&reader, &msg.status));
  CKSAFE_ASSIGN_OR_RETURN(msg.sequence, reader.U64());
  if (!reader.exhausted()) {
    return Status::InvalidArgument("trailing bytes after publish response");
  }
  return msg;
}

std::vector<uint8_t> EncodeHandoffRequest(const WireHandoffRequest& msg) {
  ByteWriter writer(8 + StringSize(msg.tenant));
  writer.PutU64(msg.id);
  writer.PutString(msg.tenant);
  return writer.Release();
}

StatusOr<WireHandoffRequest> DecodeHandoffRequest(
    const std::vector<uint8_t>& payload) {
  ByteReader reader(payload);
  WireHandoffRequest msg;
  CKSAFE_ASSIGN_OR_RETURN(msg.id, reader.U64());
  CKSAFE_ASSIGN_OR_RETURN(msg.tenant, reader.String());
  if (msg.tenant.empty()) {
    return Status::InvalidArgument("handoff with empty tenant name");
  }
  if (!reader.exhausted()) {
    return Status::InvalidArgument("trailing bytes after handoff request");
  }
  return msg;
}

std::vector<uint8_t> EncodeHandoffResponse(const WireHandoffResponse& msg) {
  size_t size = 8 + StatusSize(msg.status) + 4;
  for (const auto& snapshot : msg.snapshots) {
    CKSAFE_CHECK(snapshot != nullptr);
    size += SnapshotInlineSize(*snapshot);
  }
  ByteWriter writer(size);
  writer.PutU64(msg.id);
  EncodeStatus(msg.status, &writer);
  writer.PutU32(static_cast<uint32_t>(msg.snapshots.size()));
  for (const auto& snapshot : msg.snapshots) {
    EncodeSnapshotInline(*snapshot, &writer);
  }
  return writer.Release();
}

StatusOr<WireHandoffResponse> DecodeHandoffResponse(
    const std::vector<uint8_t>& payload) {
  ByteReader reader(payload);
  WireHandoffResponse msg;
  CKSAFE_ASSIGN_OR_RETURN(msg.id, reader.U64());
  CKSAFE_RETURN_IF_ERROR(DecodeStatus(&reader, &msg.status));
  CKSAFE_ASSIGN_OR_RETURN(const uint32_t count, reader.U32());
  // Each snapshot costs >= 32 payload bytes; bound before reserving.
  CKSAFE_RETURN_IF_ERROR(BoundCount(reader, count, 32, "handoff snapshot",
                                    StatusCode::kInvalidArgument));
  msg.snapshots.reserve(count);
  uint64_t previous = 0;
  for (uint32_t i = 0; i < count; ++i) {
    CKSAFE_ASSIGN_OR_RETURN(std::shared_ptr<const ReleaseSnapshot> snapshot,
                            DecodeSnapshotInline(&reader));
    if (snapshot->sequence <= previous) {
      return Status::InvalidArgument(
          StrFormat("handoff sequences not ascending (%llu after %llu)",
                    static_cast<unsigned long long>(snapshot->sequence),
                    static_cast<unsigned long long>(previous)));
    }
    previous = snapshot->sequence;
    msg.snapshots.push_back(std::move(snapshot));
  }
  if (!reader.exhausted()) {
    return Status::InvalidArgument("trailing bytes after handoff response");
  }
  return msg;
}

std::vector<uint8_t> EncodeDropRequest(const WireDropRequest& msg) {
  ByteWriter writer(8 + StringSize(msg.tenant));
  writer.PutU64(msg.id);
  writer.PutString(msg.tenant);
  return writer.Release();
}

StatusOr<WireDropRequest> DecodeDropRequest(
    const std::vector<uint8_t>& payload) {
  ByteReader reader(payload);
  WireDropRequest msg;
  CKSAFE_ASSIGN_OR_RETURN(msg.id, reader.U64());
  CKSAFE_ASSIGN_OR_RETURN(msg.tenant, reader.String());
  if (msg.tenant.empty()) {
    return Status::InvalidArgument("drop with empty tenant name");
  }
  if (!reader.exhausted()) {
    return Status::InvalidArgument("trailing bytes after drop request");
  }
  return msg;
}

std::vector<uint8_t> EncodeDropResponse(const WireDropResponse& msg) {
  ByteWriter writer(8 + StatusSize(msg.status));
  writer.PutU64(msg.id);
  EncodeStatus(msg.status, &writer);
  return writer.Release();
}

StatusOr<WireDropResponse> DecodeDropResponse(
    const std::vector<uint8_t>& payload) {
  ByteReader reader(payload);
  WireDropResponse msg;
  CKSAFE_ASSIGN_OR_RETURN(msg.id, reader.U64());
  CKSAFE_RETURN_IF_ERROR(DecodeStatus(&reader, &msg.status));
  if (!reader.exhausted()) {
    return Status::InvalidArgument("trailing bytes after drop response");
  }
  return msg;
}

std::vector<uint8_t> EncodePingRequest(const WirePingRequest& msg) {
  ByteWriter writer(8);
  writer.PutU64(msg.id);
  return writer.Release();
}

StatusOr<WirePingRequest> DecodePingRequest(
    const std::vector<uint8_t>& payload) {
  ByteReader reader(payload);
  WirePingRequest msg;
  CKSAFE_ASSIGN_OR_RETURN(msg.id, reader.U64());
  if (!reader.exhausted()) {
    return Status::InvalidArgument("trailing bytes after ping request");
  }
  return msg;
}

std::vector<uint8_t> EncodePingResponse(const WirePingResponse& msg) {
  ByteWriter writer(8 + StatusSize(msg.status) + 9 * 8);
  writer.PutU64(msg.id);
  EncodeStatus(msg.status, &writer);
  writer.PutU64(msg.stats.submitted);
  writer.PutU64(msg.stats.rejected);
  writer.PutU64(msg.stats.answered);
  writer.PutU64(msg.stats.batches);
  writer.PutU64(msg.stats.profile_sweeps);
  writer.PutU64(msg.stats.per_bucket_sweeps);
  writer.PutU64(msg.stats.snapshot_reloads);
  writer.PutU64(msg.stats.publishes);
  writer.PutU64(msg.stats.tenants);
  return writer.Release();
}

StatusOr<WirePingResponse> DecodePingResponse(
    const std::vector<uint8_t>& payload) {
  ByteReader reader(payload);
  WirePingResponse msg;
  CKSAFE_ASSIGN_OR_RETURN(msg.id, reader.U64());
  CKSAFE_RETURN_IF_ERROR(DecodeStatus(&reader, &msg.status));
  CKSAFE_ASSIGN_OR_RETURN(msg.stats.submitted, reader.U64());
  CKSAFE_ASSIGN_OR_RETURN(msg.stats.rejected, reader.U64());
  CKSAFE_ASSIGN_OR_RETURN(msg.stats.answered, reader.U64());
  CKSAFE_ASSIGN_OR_RETURN(msg.stats.batches, reader.U64());
  CKSAFE_ASSIGN_OR_RETURN(msg.stats.profile_sweeps, reader.U64());
  CKSAFE_ASSIGN_OR_RETURN(msg.stats.per_bucket_sweeps, reader.U64());
  CKSAFE_ASSIGN_OR_RETURN(msg.stats.snapshot_reloads, reader.U64());
  CKSAFE_ASSIGN_OR_RETURN(msg.stats.publishes, reader.U64());
  CKSAFE_ASSIGN_OR_RETURN(msg.stats.tenants, reader.U64());
  if (!reader.exhausted()) {
    return Status::InvalidArgument("trailing bytes after ping response");
  }
  return msg;
}

}  // namespace cksafe
