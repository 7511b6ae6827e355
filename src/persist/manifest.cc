#include "cksafe/persist/manifest.h"

#include <algorithm>

#include "cksafe/util/page_io.h"

namespace cksafe {
namespace {

constexpr uint32_t kManifestMagic = 0x464d4b43;  // "CKMF"
// Record header: u32 magic, u32 payload_len, u64 payload checksum.
constexpr size_t kRecordHeaderSize = 16;
// A record is a handful of refs and a tenant name; anything bigger than
// this is garbage, not a record (guards the scanner against a corrupt
// length field causing a giant allocation).
constexpr uint32_t kMaxRecordPayload = 1 << 20;
// u64 offset, u32 pages, u64 blob_size, u64 blob_checksum.
constexpr size_t kSegmentRefSize = 8 + 4 + 8 + 8;

bool StartsWithHeader(const std::vector<uint8_t>& bytes) {
  const std::vector<uint8_t> header = ManifestHeader();
  return bytes.size() >= header.size() &&
         std::equal(header.begin(), header.end(), bytes.begin());
}

void PutSegmentRef(ByteWriter* w, const SegmentRef& ref) {
  w->PutU64(ref.offset);
  w->PutU32(ref.pages);
  w->PutU64(ref.blob_size);
  w->PutU64(ref.blob_checksum);
}

StatusOr<SegmentRef> GetSegmentRef(ByteReader* r) {
  SegmentRef ref;
  CKSAFE_ASSIGN_OR_RETURN(ref.offset, r->U64());
  CKSAFE_ASSIGN_OR_RETURN(ref.pages, r->U32());
  CKSAFE_ASSIGN_OR_RETURN(ref.blob_size, r->U64());
  CKSAFE_ASSIGN_OR_RETURN(ref.blob_checksum, r->U64());
  return ref;
}

StatusOr<ManifestRecord> DecodeRecordPayload(const uint8_t* data,
                                             size_t size) {
  ByteReader r(data, size);
  ManifestRecord record;
  CKSAFE_ASSIGN_OR_RETURN(record.tenant, r.String());
  CKSAFE_ASSIGN_OR_RETURN(record.sequence, r.U64());
  CKSAFE_ASSIGN_OR_RETURN(record.num_rows, r.U64());
  CKSAFE_ASSIGN_OR_RETURN(record.domain, r.U32());
  CKSAFE_ASSIGN_OR_RETURN(record.snapshot, GetSegmentRef(&r));
  CKSAFE_ASSIGN_OR_RETURN(uint8_t has_dict, r.U8());
  if (has_dict > 1) return Status::IOError("bad dictionary marker");
  record.has_dict = has_dict == 1;
  if (record.has_dict) {
    CKSAFE_ASSIGN_OR_RETURN(record.dict_first_id, r.U32());
    CKSAFE_ASSIGN_OR_RETURN(record.dict_count, r.U32());
    CKSAFE_ASSIGN_OR_RETURN(record.dict, GetSegmentRef(&r));
  }
  if (!r.exhausted()) return Status::IOError("record has trailing bytes");
  return record;
}

}  // namespace

std::vector<uint8_t> ManifestHeader() {
  ByteWriter header(kManifestHeaderSize);
  header.PutU32(kStoreMagic);
  header.PutU32(kStoreFormatVersion);
  return header.Release();
}

std::vector<uint8_t> EncodeManifestRecord(const ManifestRecord& record) {
  ByteWriter payload(4 + record.tenant.size() + 8 + 8 + 4 + kSegmentRefSize +
                     1 + (record.has_dict ? 4 + 4 + kSegmentRefSize : 0));
  payload.PutString(record.tenant);
  payload.PutU64(record.sequence);
  payload.PutU64(record.num_rows);
  payload.PutU32(record.domain);
  PutSegmentRef(&payload, record.snapshot);
  payload.PutU8(record.has_dict ? 1 : 0);
  if (record.has_dict) {
    payload.PutU32(record.dict_first_id);
    payload.PutU32(record.dict_count);
    PutSegmentRef(&payload, record.dict);
  }
  ByteWriter framed(kRecordHeaderSize + payload.size());
  framed.PutU32(kManifestMagic);
  framed.PutU32(static_cast<uint32_t>(payload.size()));
  framed.PutU64(XxHash64(payload.bytes().data(), payload.size()));
  framed.PutBytes(payload.bytes().data(), payload.size());
  return framed.Release();
}

ManifestScan ScanManifest(const std::vector<uint8_t>& bytes) {
  ManifestScan scan;
  if (!StartsWithHeader(bytes)) return scan;
  size_t pos = kManifestHeaderSize;
  while (bytes.size() - pos >= kRecordHeaderSize) {
    ByteReader header(bytes.data() + pos, kRecordHeaderSize);
    const uint32_t magic = *header.U32();
    const uint32_t payload_len = *header.U32();
    const uint64_t checksum = *header.U64();
    if (magic != kManifestMagic || payload_len > kMaxRecordPayload) break;
    if (bytes.size() - pos - kRecordHeaderSize < payload_len) break;
    const uint8_t* payload = bytes.data() + pos + kRecordHeaderSize;
    if (XxHash64(payload, payload_len) != checksum) break;
    auto record = DecodeRecordPayload(payload, payload_len);
    if (!record.ok()) break;
    scan.records.push_back(*std::move(record));
    pos += kRecordHeaderSize + payload_len;
    scan.record_ends.push_back(pos);
  }
  return scan;
}

}  // namespace cksafe
