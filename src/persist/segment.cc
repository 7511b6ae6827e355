#include "cksafe/persist/segment.h"

#include <cstring>
#include <utility>
#include <vector>

#include "cksafe/util/check.h"
#include "cksafe/util/string_util.h"

namespace cksafe {
namespace {

constexpr uint32_t kSnapshotBlobMagic = 0x50414e53;    // "SNAP"
constexpr uint32_t kDictionaryBlobMagic = 0x54434944;  // "DICT"

// Offset of the checksum field inside the 16-byte page header; the
// checksum covers bytes [0, kChecksumOffset) plus the payload.
constexpr size_t kChecksumOffset = 8;

uint64_t PageChecksum(const uint8_t* page, size_t payload_len) {
  const uint64_t header_part = Fnv1a64(page, kChecksumOffset);
  return Fnv1a64(page + kPageHeaderSize, payload_len, header_part);
}

void PutLE(uint8_t* out, uint64_t v, int width) {
  for (int i = 0; i < width; ++i) out[i] = (v >> (8 * i)) & 0xffu;
}

uint64_t GetLE(const uint8_t* in, int width) {
  uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    v |= static_cast<uint64_t>(in[i]) << (8 * i);
  }
  return v;
}

uint32_t NonzeroCount(const std::vector<uint32_t>& histogram) {
  uint32_t nonzero = 0;
  for (const uint32_t count : histogram) nonzero += (count != 0);
  return nonzero;
}

}  // namespace

size_t PagesForBlob(size_t blob_size) {
  if (blob_size == 0) return 1;
  return (blob_size + kPagePayloadCapacity - 1) / kPagePayloadCapacity;
}

std::vector<uint8_t> FrameSegmentPages(PageType type,
                                       const std::vector<uint8_t>& blob) {
  const size_t num_pages = PagesForBlob(blob.size());
  std::vector<uint8_t> pages(num_pages * kPageSize, 0);
  size_t consumed = 0;
  for (size_t p = 0; p < num_pages; ++p) {
    uint8_t* page = pages.data() + p * kPageSize;
    const size_t payload_len =
        std::min(kPagePayloadCapacity, blob.size() - consumed);
    uint8_t flags = 0;
    if (p == 0) flags |= kPageFlagFirst;
    if (p + 1 == num_pages) flags |= kPageFlagLast;
    PutLE(page, kPageMagic, 4);
    PutLE(page + 4, payload_len, 2);
    page[6] = static_cast<uint8_t>(type);
    page[7] = flags;
    // An empty blob has no data() to copy from: memcpy from null is UB even
    // for zero bytes.
    if (payload_len > 0) {
      std::memcpy(page + kPageHeaderSize, blob.data() + consumed, payload_len);
    }
    PutLE(page + kChecksumOffset, PageChecksum(page, payload_len), 8);
    consumed += payload_len;
  }
  CKSAFE_CHECK_EQ(consumed, blob.size());
  return pages;
}

Status UnframeSegmentPage(const uint8_t* page, PageType expected_type,
                          bool expect_first, bool* is_last,
                          std::vector<uint8_t>* blob) {
  if (GetLE(page, 4) != kPageMagic) {
    return Status::IOError("bad page magic");
  }
  const size_t payload_len = GetLE(page + 4, 2);
  if (payload_len > kPagePayloadCapacity) {
    return Status::IOError("page payload length out of range");
  }
  if (page[6] != static_cast<uint8_t>(expected_type)) {
    return Status::IOError("unexpected page type");
  }
  const uint8_t flags = page[7];
  if (expect_first != ((flags & kPageFlagFirst) != 0)) {
    return Status::IOError("page continuation flags inconsistent");
  }
  const uint64_t stored = GetLE(page + kChecksumOffset, 8);
  if (stored != PageChecksum(page, payload_len)) {
    return Status::IOError("page checksum mismatch");
  }
  blob->insert(blob->end(), page + kPageHeaderSize,
               page + kPageHeaderSize + payload_len);
  *is_last = (flags & kPageFlagLast) != 0;
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

std::vector<uint8_t> EncodeDictionaryDelta(
    const LabelDictionary::Delta& delta) {
  size_t size = 4 + 4 + 4;
  for (const std::string& label : delta.labels) size += 4 + label.size();
  ByteWriter w(size);
  w.PutU32(kDictionaryBlobMagic);
  w.PutU32(delta.first_id);
  w.PutU32(static_cast<uint32_t>(delta.labels.size()));
  for (const std::string& label : delta.labels) w.PutString(label);
  return w.Release();
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

std::vector<uint8_t> EncodeSnapshotBlob(const ReleaseSnapshot& snapshot,
                                        const StoredProfile& profile,
                                        const LabelDictionary& dict,
                                        LabelDictionary::Delta* dict_delta) {
  const Bucketization& b = snapshot.bucketization;
  size_t size = 4 + 8 + 8 + 4 + 4 * snapshot.node.size() + 4 + 4 + 1;
  for (const Bucket& bucket : b.buckets()) {
    size += 4 + 4 + 4 * bucket.members.size() + 4 +
            8 * size_t{NonzeroCount(bucket.histogram)};
  }
  if (!profile.empty()) {
    size += 4 + 8 * (profile.implication.size() + profile.negation.size());
  }
  ByteWriter w(size);
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
    for (PersonId member : bucket.members) w.PutU32(member);
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
  return w.Release();
}

StatusOr<std::shared_ptr<const ReleaseSnapshot>> DecodeSnapshotBlob(
    const std::vector<uint8_t>& blob, const LabelDictionary& dict,
    StoredProfile* profile) {
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
  CKSAFE_ASSIGN_OR_RETURN(uint32_t domain, r.U32());
  CKSAFE_ASSIGN_OR_RETURN(uint32_t num_buckets, r.U32());
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
    bucket.members.reserve(member_count);
    for (uint32_t m = 0; m < member_count; ++m) {
      CKSAFE_ASSIGN_OR_RETURN(uint32_t member, r.U32());
      bucket.members.push_back(static_cast<PersonId>(member));
    }
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
