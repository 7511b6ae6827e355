// On-disk release format: page-structured segments.
//
// A *segment* is one logical record — a frozen ReleaseSnapshot or a
// dictionary delta — whose blob (a byte stream) is encoded straight into
// fixed 4 KiB pages (util/page_io.h) by a SegmentWriter, each page
// carrying its own XXH64 checksum and first/last continuation flags.
// Pages are the unit the buffer pool caches; segments are the unit the
// manifest commits. The blob encodings are pure little-endian integer
// streams (doubles travel as IEEE bit patterns), so a segment decodes
// bit-identically to what was encoded — the serving layer's
// exact-equality contract extends to disk.
//
// Bucket qi-labels repeat heavily across a tenant's snapshot sequence
// (they render generalized hierarchy values, drawn from a small set), so
// snapshots store dictionary ids and each tenant keeps an append-only
// LabelDictionary: new labels ride along as a dictionary-delta segment
// committed atomically with the snapshot that introduced them.

#ifndef CKSAFE_PERSIST_SEGMENT_H_
#define CKSAFE_PERSIST_SEGMENT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cksafe/serve/release_snapshot.h"
#include "cksafe/util/page_io.h"
#include "cksafe/util/status.h"

namespace cksafe {

/// What a page's payload belongs to.
enum class PageType : uint8_t {
  kSnapshot = 1,    ///< part of an encoded ReleaseSnapshot
  kDictionary = 2,  ///< part of a label-dictionary delta
  kHeader = 3,      ///< segments.dat's page 0: the store magic and version
};

/// Page layout: a 16-byte header followed by payload, zero-padded to
/// kPageSize. The header holds the magic, the payload length (u16), the
/// type, the flags, and the checksum: the XXH64 of the payload seeded
/// with the header's first 8 bytes, so a torn or bit-flipped page never
/// validates.
inline constexpr size_t kPageHeaderSize = 16;
inline constexpr size_t kPagePayloadCapacity = kPageSize - kPageHeaderSize;
inline constexpr uint32_t kPageMagic = 0x47504b43;  // "CKPG"

/// First/last page of a segment (a single-page segment carries both).
inline constexpr uint8_t kPageFlagFirst = 0x1;
inline constexpr uint8_t kPageFlagLast = 0x2;

/// Both store files begin with the store magic and the format version:
/// MANIFEST as its first 8 bytes, segments.dat as the payload of its
/// header page. Open refuses any other version (DESIGN.md §12.3).
inline constexpr uint32_t kStoreMagic = 0x46534b43;  // "CKSF"
inline constexpr uint32_t kStoreFormatVersion = 2;

/// segments.dat's header page (page 0): a kHeader segment whose blob is
/// the store magic and the format version.
std::vector<uint8_t> SegmentsHeader();

/// Where one segment lives in the segment file.
struct SegmentRef {
  uint64_t offset = 0;         ///< byte offset, always page-aligned
  uint32_t pages = 0;          ///< whole 4 KiB pages
  uint64_t blob_size = 0;      ///< payload bytes before page framing
  uint64_t blob_checksum = 0;  ///< XXH64 of the page checksums (LE u64s)
};

/// Encodes one segment's blob straight into framed pages appended to
/// `*out`: little-endian words go into the open page's payload (a word
/// may straddle two pages), and each page is checksummed once, when it
/// closes. Nothing else may append to `*out` until Finish().
class SegmentWriter {
 public:
  /// Starts a segment of `type` at the end of `*out`, whose first byte is
  /// appended to the segment file at `out_file_offset`.
  SegmentWriter(PageType type, uint64_t out_file_offset,
                std::vector<uint8_t>* out);
  SegmentWriter(const SegmentWriter&) = delete;
  SegmentWriter& operator=(const SegmentWriter&) = delete;

  void PutU8(uint8_t v) { Put(v, 1); }
  void PutU32(uint32_t v) { Put(v, 4); }
  void PutU64(uint64_t v) { Put(v, 8); }
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  /// Doubles travel as their IEEE-754 bit pattern.
  void PutDouble(double v);
  /// Length-prefixed (u32) byte string.
  void PutString(std::string_view s);
  /// `count` u32s, page by page rather than word by word.
  void PutU32s(const uint32_t* values, size_t count);

  /// Closes the segment's last page and returns where the segment lives.
  SegmentRef Finish();

 private:
  void Put(uint64_t v, size_t width) {
    if (room_ >= width) {
      StoreLittleEndian(cursor_, v, width);
      cursor_ += width;
      room_ -= width;
    } else {
      uint8_t bytes[8];
      StoreLittleEndian(bytes, v, width);
      PutBytes(bytes, width);
    }
  }
  void PutBytes(const uint8_t* data, size_t size);
  void OpenPage();
  void ClosePage(bool last);

  const PageType type_;
  std::vector<uint8_t>* const out_;
  const uint64_t file_offset_;  // of the segment's first page
  size_t page_at_ = 0;          // index of the open page in *out_
  uint8_t* cursor_ = nullptr;   // next payload byte of the open page
  size_t room_ = 0;             // payload bytes left in the open page
  uint32_t pages_ = 0;          // closed pages
  uint64_t blob_size_ = 0;      // payload bytes in closed pages
  std::vector<uint8_t> page_checksums_;  // LE u64 per closed page
};

/// Reassembles one segment's blob from its pages, fed in order: each page
/// must validate (magic, payload length, type, continuation flags,
/// checksum), and Finish() checks that the segment ended on its last page
/// with the blob size and derived blob checksum that `ref` records.
class SegmentReader {
 public:
  SegmentReader(const SegmentRef& ref, PageType type,
                std::vector<uint8_t>* blob);

  /// Validates the segment's next page and appends its payload.
  Status AddPage(const uint8_t* page);
  Status Finish();

 private:
  const SegmentRef ref_;
  const PageType type_;
  std::vector<uint8_t>* const blob_;
  uint32_t pages_ = 0;
  bool last_ = false;
  std::vector<uint8_t> page_checksums_;
};

/// Append-only per-tenant string dictionary: id i is the i-th label ever
/// committed for the tenant. Lookups are O(1) both ways; new labels are
/// staged in a Delta and only Applied once the enclosing publish commits,
/// so a failed or crashed publish never advances the dictionary.
class LabelDictionary {
 public:
  /// Labels of one publish that were not yet in the dictionary, in first-use
  /// order; ids [first_id, first_id + labels.size()) are reserved for them.
  struct Delta {
    uint32_t first_id = 0;
    std::vector<std::string> labels;
    bool empty() const { return labels.empty(); }
  };

  /// Resolves `label` to its id, staging it in `*delta` when new. The same
  /// delta must later be Applied (commit) or dropped (abort).
  uint32_t InternInto(const std::string& label, Delta* delta) const;

  /// Commits a delta staged by InternInto (or decoded from disk). The
  /// delta's first_id must equal size() — deltas apply in commit order.
  Status Apply(const Delta& delta);

  StatusOr<std::string> Lookup(uint32_t id) const;
  size_t size() const { return labels_.size(); }

 private:
  std::vector<std::string> labels_;
  std::map<std::string, uint32_t> ids_;
};

/// Encodes a dictionary delta as a segment blob.
void EncodeDictionaryDelta(const LabelDictionary::Delta& delta,
                           SegmentWriter* writer);
StatusOr<LabelDictionary::Delta> DecodeDictionaryDelta(
    const std::vector<uint8_t>& blob);

/// The optional per-snapshot disclosure profile rider: the tenant's whole
/// disclosure-vs-k curve at publish time, stored as raw IEEE bits. Purely
/// an integrity artifact — serving always recomputes from the buckets, and
/// `persist --verify` recomputes and compares bit-identically, which
/// certifies the rehydrated bucketization semantically, not just
/// structurally.
struct StoredProfile {
  std::vector<double> implication;  ///< size max_k + 1
  std::vector<double> negation;     ///< size max_k + 1
  bool empty() const { return implication.empty(); }
};

/// Encodes a snapshot (and optional profile rider) as a segment blob.
/// Bucket labels are interned through `dict` into `*dict_delta`.
void EncodeSnapshotBlob(const ReleaseSnapshot& snapshot,
                        const StoredProfile& profile,
                        const LabelDictionary& dict,
                        LabelDictionary::Delta* dict_delta,
                        SegmentWriter* writer);

/// The most histogram cells (buckets x sensitive domain) a stored
/// snapshot may hold. Histograms are stored sparse, so no byte count
/// bounds the dense ones a decoder builds; this cap does. It is the
/// 256 MiB of u32 counts that a wire frame, which carries histograms
/// dense, can hold at most, so every snapshot a shard can serve fits.
inline constexpr uint64_t kMaxSnapshotHistogramCells = uint64_t{1} << 26;

/// Decodes a snapshot blob. `dict` must already include the dictionary
/// delta committed with this snapshot, and `domain` is the sensitive
/// domain size its manifest record carries. A blob that declares another
/// domain, or more than kMaxSnapshotHistogramCells histogram cells, is an
/// IOError before any histogram is sized. The rebuilt snapshot is
/// bit-identical to the encoded one: same sequence, rows, node, bucket
/// order, members, histograms, and labels.
StatusOr<std::shared_ptr<const ReleaseSnapshot>> DecodeSnapshotBlob(
    const std::vector<uint8_t>& blob, const LabelDictionary& dict,
    uint32_t domain, StoredProfile* profile);

}  // namespace cksafe

#endif  // CKSAFE_PERSIST_SEGMENT_H_
