#include "cksafe/persist/segment.h"

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "cksafe/util/check.h"
#include "cksafe/util/string_util.h"

namespace cksafe {
namespace {

constexpr uint32_t kSnapshotBlobMagic = 0x50414e53;    // "SNAP"
constexpr uint32_t kDictionaryBlobMagic = 0x54434944;  // "DICT"

// Offset of the checksum field inside the 16-byte page header; the
// header bytes before it seed the payload's XXH64.
constexpr size_t kChecksumOffset = 8;

uint64_t PageChecksum(const uint8_t* page, size_t payload_len) {
  return XxHash64(page + kPageHeaderSize, payload_len,
                  LoadLittleEndian(page, kChecksumOffset));
}

void AppendChecksum(std::vector<uint8_t>* checksums, uint64_t checksum) {
  const size_t at = checksums->size();
  checksums->resize(at + 8);
  StoreLittleEndian(checksums->data() + at, checksum, 8);
}

uint32_t NonzeroCount(const std::vector<uint32_t>& histogram) {
  uint32_t nonzero = 0;
  for (const uint32_t count : histogram) nonzero += (count != 0);
  return nonzero;
}

}  // namespace

std::vector<uint8_t> SegmentsHeader() {
  std::vector<uint8_t> page;
  SegmentWriter writer(PageType::kHeader, 0, &page);
  writer.PutU32(kStoreMagic);
  writer.PutU32(kStoreFormatVersion);
  writer.Finish();
  return page;
}

SegmentWriter::SegmentWriter(PageType type, uint64_t out_file_offset,
                             std::vector<uint8_t>* out)
    : type_(type), out_(out), file_offset_(out_file_offset + out->size()) {
  CKSAFE_CHECK_EQ(file_offset_ % kPageSize, 0u) << "segment offset unaligned";
  OpenPage();
}

void SegmentWriter::OpenPage() {
  page_at_ = out_->size();
  out_->resize(page_at_ + kPageSize);  // zero-filled: the padding
  cursor_ = out_->data() + page_at_ + kPageHeaderSize;
  room_ = kPagePayloadCapacity;
}

void SegmentWriter::ClosePage(bool last) {
  uint8_t* page = out_->data() + page_at_;
  const size_t payload_len = kPagePayloadCapacity - room_;
  StoreLittleEndian(page, kPageMagic, 4);
  StoreLittleEndian(page + 4, payload_len, 2);
  page[6] = static_cast<uint8_t>(type_);
  page[7] = static_cast<uint8_t>((pages_ == 0 ? kPageFlagFirst : 0) |
                                 (last ? kPageFlagLast : 0));
  const uint64_t checksum = PageChecksum(page, payload_len);
  StoreLittleEndian(page + kChecksumOffset, checksum, 8);
  AppendChecksum(&page_checksums_, checksum);
  blob_size_ += payload_len;
  ++pages_;
}

void SegmentWriter::PutBytes(const uint8_t* data, size_t size) {
  while (size > 0) {
    if (room_ == 0) {
      // Only now is the full page known not to be the segment's last.
      ClosePage(/*last=*/false);
      OpenPage();
    }
    const size_t n = std::min(room_, size);
    std::memcpy(cursor_, data, n);
    cursor_ += n;
    room_ -= n;
    data += n;
    size -= n;
  }
}

void SegmentWriter::PutDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void SegmentWriter::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  PutBytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

void SegmentWriter::PutU32s(const uint32_t* values, size_t count) {
  PutBytes(reinterpret_cast<const uint8_t*>(values), 4 * count);
}

SegmentRef SegmentWriter::Finish() {
  ClosePage(/*last=*/true);
  SegmentRef ref;
  ref.offset = file_offset_;
  ref.pages = pages_;
  ref.blob_size = blob_size_;
  ref.blob_checksum =
      XxHash64(page_checksums_.data(), page_checksums_.size());
  return ref;
}

SegmentReader::SegmentReader(const SegmentRef& ref, PageType type,
                             std::vector<uint8_t>* blob)
    : ref_(ref), type_(type), blob_(blob) {
  blob_->clear();
  // A record's sizes are only as good as its checksum: reserve no more
  // than its pages can hold.
  blob_->reserve(std::min<uint64_t>(
      ref.blob_size, uint64_t{ref.pages} * kPagePayloadCapacity));
}

Status SegmentReader::AddPage(const uint8_t* page) {
  if (last_) return Status::IOError("segment continues past last page");
  if (LoadLittleEndian(page, 4) != kPageMagic) {
    return Status::IOError("bad page magic");
  }
  const size_t payload_len = LoadLittleEndian(page + 4, 2);
  if (payload_len > kPagePayloadCapacity) {
    return Status::IOError("page payload length out of range");
  }
  if (page[6] != static_cast<uint8_t>(type_)) {
    return Status::IOError("unexpected page type");
  }
  const uint8_t flags = page[7];
  if ((pages_ == 0) != ((flags & kPageFlagFirst) != 0)) {
    return Status::IOError("page continuation flags inconsistent");
  }
  const uint64_t checksum = PageChecksum(page, payload_len);
  if (LoadLittleEndian(page + kChecksumOffset, 8) != checksum) {
    return Status::IOError("page checksum mismatch");
  }
  blob_->insert(blob_->end(), page + kPageHeaderSize,
                page + kPageHeaderSize + payload_len);
  AppendChecksum(&page_checksums_, checksum);
  last_ = (flags & kPageFlagLast) != 0;
  ++pages_;
  return Status::OK();
}

Status SegmentReader::Finish() {
  if (!last_) return Status::IOError("segment missing its last page");
  if (blob_->size() != ref_.blob_size) {
    return Status::IOError("segment blob size mismatch");
  }
  if (XxHash64(page_checksums_.data(), page_checksums_.size()) !=
      ref_.blob_checksum) {
    return Status::IOError("segment blob checksum mismatch");
  }
  return Status::OK();
}

uint32_t LabelDictionary::InternInto(const std::string& label,
                                     Delta* delta) const {
  if (const auto it = ids_.find(label); it != ids_.end()) return it->second;
  if (delta->labels.empty()) {
    delta->first_id = static_cast<uint32_t>(labels_.size());
  }
  // The label may already be staged (two buckets sharing a new label).
  for (size_t i = 0; i < delta->labels.size(); ++i) {
    if (delta->labels[i] == label) {
      return delta->first_id + static_cast<uint32_t>(i);
    }
  }
  delta->labels.push_back(label);
  return delta->first_id + static_cast<uint32_t>(delta->labels.size() - 1);
}

Status LabelDictionary::Apply(const Delta& delta) {
  if (delta.empty()) return Status::OK();
  if (delta.first_id != labels_.size()) {
    return Status::IOError(
        "dictionary delta out of order: first id " +
        std::to_string(delta.first_id) + " but dictionary holds " +
        std::to_string(labels_.size()) + " labels");
  }
  for (const std::string& label : delta.labels) {
    if (ids_.count(label) != 0) {
      return Status::IOError("dictionary delta re-adds label: " + label);
    }
    ids_[label] = static_cast<uint32_t>(labels_.size());
    labels_.push_back(label);
  }
  return Status::OK();
}

StatusOr<std::string> LabelDictionary::Lookup(uint32_t id) const {
  if (id >= labels_.size()) {
    return Status::IOError("dictionary id out of range: " + std::to_string(id));
  }
  return labels_[id];
}

void EncodeDictionaryDelta(const LabelDictionary::Delta& delta,
                           SegmentWriter* writer) {
  writer->PutU32(kDictionaryBlobMagic);
  writer->PutU32(delta.first_id);
  writer->PutU32(static_cast<uint32_t>(delta.labels.size()));
  for (const std::string& label : delta.labels) writer->PutString(label);
}

StatusOr<LabelDictionary::Delta> DecodeDictionaryDelta(
    const std::vector<uint8_t>& blob) {
  ByteReader r(blob);
  CKSAFE_ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  if (magic != kDictionaryBlobMagic) {
    return Status::IOError("bad dictionary blob magic");
  }
  LabelDictionary::Delta delta;
  CKSAFE_ASSIGN_OR_RETURN(delta.first_id, r.U32());
  CKSAFE_ASSIGN_OR_RETURN(uint32_t count, r.U32());
  // Each label is at least its u32 length prefix.
  CKSAFE_RETURN_IF_ERROR(
      BoundCount(r, count, 4, "dictionary label", StatusCode::kIOError));
  delta.labels.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    CKSAFE_ASSIGN_OR_RETURN(std::string label, r.String());
    delta.labels.push_back(std::move(label));
  }
  if (!r.exhausted()) return Status::IOError("dictionary blob has trailing bytes");
  return delta;
}

void EncodeSnapshotBlob(const ReleaseSnapshot& snapshot,
                        const StoredProfile& profile,
                        const LabelDictionary& dict,
                        LabelDictionary::Delta* dict_delta,
                        SegmentWriter* writer) {
  static_assert(std::is_same_v<PersonId, uint32_t>);
  const Bucketization& b = snapshot.bucketization;
  SegmentWriter& w = *writer;
  w.PutU32(kSnapshotBlobMagic);
  w.PutU64(snapshot.sequence);
  w.PutU64(static_cast<uint64_t>(snapshot.num_rows));
  w.PutU32(static_cast<uint32_t>(snapshot.node.size()));
  for (int level : snapshot.node) w.PutI32(level);
  w.PutU32(static_cast<uint32_t>(b.sensitive_domain_size()));
  w.PutU32(static_cast<uint32_t>(b.num_buckets()));
  for (const Bucket& bucket : b.buckets()) {
    w.PutU32(dict.InternInto(bucket.qi_label, dict_delta));
    w.PutU32(static_cast<uint32_t>(bucket.members.size()));
    w.PutU32s(bucket.members.data(), bucket.members.size());
    w.PutU32(NonzeroCount(bucket.histogram));
    for (size_t s = 0; s < bucket.histogram.size(); ++s) {
      if (bucket.histogram[s] == 0) continue;
      w.PutU32(static_cast<uint32_t>(s));
      w.PutU32(bucket.histogram[s]);
    }
  }
  if (profile.empty()) {
    w.PutU8(0);
  } else {
    CKSAFE_CHECK_EQ(profile.implication.size(), profile.negation.size());
    w.PutU8(1);
    w.PutU32(static_cast<uint32_t>(profile.implication.size()));
    for (double v : profile.implication) w.PutDouble(v);
    for (double v : profile.negation) w.PutDouble(v);
  }
}

StatusOr<std::shared_ptr<const ReleaseSnapshot>> DecodeSnapshotBlob(
    const std::vector<uint8_t>& blob, const LabelDictionary& dict,
    uint32_t domain, StoredProfile* profile) {
  ByteReader r(blob);
  CKSAFE_ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  if (magic != kSnapshotBlobMagic) {
    return Status::IOError("bad snapshot blob magic");
  }
  auto snapshot = std::make_shared<ReleaseSnapshot>();
  CKSAFE_ASSIGN_OR_RETURN(snapshot->sequence, r.U64());
  CKSAFE_ASSIGN_OR_RETURN(uint64_t num_rows, r.U64());
  snapshot->num_rows = static_cast<size_t>(num_rows);
  CKSAFE_ASSIGN_OR_RETURN(uint32_t node_size, r.U32());
  CKSAFE_RETURN_IF_ERROR(
      BoundCount(r, node_size, 4, "lattice node", StatusCode::kIOError));
  snapshot->node.resize(node_size);
  for (uint32_t i = 0; i < node_size; ++i) {
    CKSAFE_ASSIGN_OR_RETURN(snapshot->node[i], r.I32());
  }
  CKSAFE_ASSIGN_OR_RETURN(uint32_t blob_domain, r.U32());
  if (blob_domain != domain) {
    return Status::IOError(
        StrFormat("snapshot blob declares a sensitive domain of %u, its "
                  "record %u",
                  blob_domain, domain));
  }
  CKSAFE_ASSIGN_OR_RETURN(uint32_t num_buckets, r.U32());
  // Histograms are stored sparse, so no byte count bounds the dense ones
  // decoded here; the cap does, before any is sized.
  if (uint64_t{domain} * num_buckets > kMaxSnapshotHistogramCells) {
    return Status::IOError(StrFormat(
        "snapshot blob declares %u buckets over a sensitive domain of %u, "
        "more histogram cells than the %llu a snapshot may hold",
        num_buckets, domain,
        static_cast<unsigned long long>(kMaxSnapshotHistogramCells)));
  }
  // Buckets are staged first so member ids can be checked against the
  // total member count (the dense partition every release is) before
  // Bucketization sizes its person-indexed table by the largest id.
  std::vector<Bucket> staged;
  uint64_t total_members = 0;
  for (uint32_t bi = 0; bi < num_buckets; ++bi) {
    Bucket bucket;
    CKSAFE_ASSIGN_OR_RETURN(uint32_t label_id, r.U32());
    CKSAFE_ASSIGN_OR_RETURN(bucket.qi_label, dict.Lookup(label_id));
    CKSAFE_ASSIGN_OR_RETURN(uint32_t member_count, r.U32());
    CKSAFE_RETURN_IF_ERROR(
        BoundCount(r, member_count, 4, "member", StatusCode::kIOError));
    bucket.members.resize(member_count);
    CKSAFE_RETURN_IF_ERROR(r.U32s(bucket.members.data(), member_count));
    bucket.histogram.assign(domain, 0);
    CKSAFE_ASSIGN_OR_RETURN(uint32_t nonzero, r.U32());
    for (uint32_t n = 0; n < nonzero; ++n) {
      CKSAFE_ASSIGN_OR_RETURN(uint32_t index, r.U32());
      CKSAFE_ASSIGN_OR_RETURN(uint32_t count, r.U32());
      if (index >= domain) {
        return Status::IOError("histogram index out of range");
      }
      bucket.histogram[index] = count;
    }
    total_members += member_count;
    staged.push_back(std::move(bucket));
  }
  Bucketization bucketization(domain);
  for (Bucket& bucket : staged) {
    for (const PersonId member : bucket.members) {
      if (member >= total_members) {
        return Status::IOError(
            StrFormat("member id %u outside the dense partition of %llu "
                      "tuples",
                      member, static_cast<unsigned long long>(total_members)));
      }
    }
    // AddBucket re-runs the structural invariants (membership disjoint,
    // histogram totals match), so a decoded-but-inconsistent segment is
    // rejected here rather than surfacing as wrong answers later.
    CKSAFE_RETURN_IF_ERROR(bucketization.AddBucket(std::move(bucket)));
  }
  snapshot->bucketization = std::move(bucketization);
  profile->implication.clear();
  profile->negation.clear();
  CKSAFE_ASSIGN_OR_RETURN(uint8_t has_profile, r.U8());
  if (has_profile == 1) {
    CKSAFE_ASSIGN_OR_RETURN(uint32_t curve_len, r.U32());
    // Each point is two doubles: implication and negation.
    CKSAFE_RETURN_IF_ERROR(
        BoundCount(r, curve_len, 16, "profile point", StatusCode::kIOError));
    profile->implication.resize(curve_len);
    profile->negation.resize(curve_len);
    for (uint32_t i = 0; i < curve_len; ++i) {
      CKSAFE_ASSIGN_OR_RETURN(profile->implication[i], r.Double());
    }
    for (uint32_t i = 0; i < curve_len; ++i) {
      CKSAFE_ASSIGN_OR_RETURN(profile->negation[i], r.Double());
    }
  } else if (has_profile != 0) {
    return Status::IOError("bad profile marker");
  }
  if (!r.exhausted()) return Status::IOError("snapshot blob has trailing bytes");
  return std::shared_ptr<const ReleaseSnapshot>(std::move(snapshot));
}

}  // namespace cksafe
