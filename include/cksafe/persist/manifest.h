// The write-ahead manifest: the durable store's commit log.
//
// Every Publish appends exactly one manifest record *after* its segment
// pages are written and fsynced, then fsyncs the manifest — the manifest
// record is the commit point. A record that scans as valid (magic, length,
// checksum) therefore refers to segment pages that are already durable; a
// record cut short by a crash fails the scan and is discarded along with
// everything after it (the torn tail), which also orphans — and recovery
// truncates — any segment pages the lost publishes had written.
//
// The file begins with an 8-byte header, the store magic and the format
// version (persist/segment.h). Records follow it, framed independently of
// the 4 KiB page grid (they are tiny), but with the same discipline:
// little-endian integers, explicit lengths, an XXH64 checksum over the
// payload.

#ifndef CKSAFE_PERSIST_MANIFEST_H_
#define CKSAFE_PERSIST_MANIFEST_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cksafe/persist/segment.h"

namespace cksafe {

/// MANIFEST's header: the store magic and the format version, u32 each.
inline constexpr size_t kManifestHeaderSize = 8;
std::vector<uint8_t> ManifestHeader();

/// One committed publish: the tenant's next snapshot segment, plus the
/// dictionary delta (possibly empty) committed atomically with it.
struct ManifestRecord {
  std::string tenant;
  uint64_t sequence = 0;
  uint64_t num_rows = 0;
  /// The snapshot's sensitive domain size, which its blob must declare
  /// too (the decoder's cap, kMaxSnapshotHistogramCells, bounds both).
  uint32_t domain = 0;
  SegmentRef snapshot;
  bool has_dict = false;
  uint32_t dict_first_id = 0;
  uint32_t dict_count = 0;
  SegmentRef dict;
};

/// Frames `record` (header + checksummed payload) for appending.
std::vector<uint8_t> EncodeManifestRecord(const ManifestRecord& record);

/// Result of scanning a manifest image: the longest valid record prefix.
struct ManifestScan {
  std::vector<ManifestRecord> records;
  /// record_ends[i] = file offset just past record i: the manifest's
  /// committed length when record i is the last to survive recovery.
  std::vector<uint64_t> record_ends;
};

/// Scans a whole MANIFEST image, header included, stopping at the first
/// record that fails validation. An image that does not begin with
/// ManifestHeader() holds no records. Never errors on torn input — a torn
/// tail is an expected crash artifact.
ManifestScan ScanManifest(const std::vector<uint8_t>& bytes);

}  // namespace cksafe

#endif  // CKSAFE_PERSIST_MANIFEST_H_
