// The durable tiered snapshot store: segments + manifest + buffer pool.
//
// One DurableStore owns one directory holding exactly two files:
//
//   segments.dat  — page-structured segment data (snapshots, dict deltas)
//   MANIFEST      — the write-ahead commit log (persist/manifest.h)
//
// Both begin with the store magic and format version (segments.dat as
// its header page 0). Open() refuses a file whose header is foreign,
// missing or of another version with FailedPrecondition and touches
// neither file; an empty file, or one whose header bytes are each as
// written or still zero (a header write cut short or torn into
// zero-filled blocks), is a fresh store. The headers go out with the
// first group's bytes, so opening a fresh directory writes nothing.
//
// AppendPublishGroup is the atomic-append commit protocol for a group of
// publishes (one serving round; AppendPublish is a group of one): every
// entry's segments are encoded straight into pages, appended in entry
// order with one write and fsynced once, then every entry's manifest
// record is appended with one write and fsynced once. Each manifest
// record is its own commit point, written only after the pages it names
// are durable. A crash anywhere in between leaves a prefix of the group's
// records committed and a torn tail that Open() detects (XXH64 checksums,
// extents, per-tenant sequence contiguity), truncates from both files,
// and forgets; the store always reopens to the exact prefix of publishes
// whose manifest records survived. Groups and single appends write
// byte-identical files.
//
// Reads go through a fixed-capacity BufferPool, so a directory whose
// snapshot history exceeds RAM still serves loads: cold pages are evicted
// LRU and transparently re-read, and because decoding is deterministic an
// evicted-then-reloaded snapshot is bit-identical to the first decode.
//
// Thread safety: one writer (AppendPublish / AppendPublishGroup) at a
// time; loads and inspection methods may run concurrently with each other
// and with the writer (everything shared is behind the store mutex, page
// caching behind the pool's own).

#ifndef CKSAFE_PERSIST_DURABLE_STORE_H_
#define CKSAFE_PERSIST_DURABLE_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "cksafe/persist/buffer_pool.h"
#include "cksafe/persist/manifest.h"
#include "cksafe/persist/segment.h"
#include "cksafe/serve/snapshot_store.h"
#include "cksafe/util/page_io.h"
#include "cksafe/util/status.h"

namespace cksafe {

/// Configuration seam for the durable path. The in-memory serving path
/// never constructs one of these; everything durable hangs off it.
struct DurableStoreOptions {
  /// Store directory (created if absent; parent must exist).
  std::string dir;

  /// Buffer pool capacity in 4 KiB frames (>= 1).
  size_t buffer_pool_pages = 64;

  /// When > 0, each publish stores the tenant's disclosure-vs-k curves up
  /// to this budget as an integrity rider that `persist --verify`
  /// recomputes and compares bit-identically. 0 skips the rider.
  size_t profile_max_k = 0;

  /// Test-only crash seam: when >= 0, the process raises SIGKILL the
  /// moment the store's cumulative appended-byte count reaches this
  /// threshold — exactly that many bytes are written, mid-segment,
  /// mid-manifest-record, wherever it lands. The kill-and-recover torture
  /// sweeps this through a group's byte range to prove every torn prefix
  /// recovers exactly.
  int64_t test_crash_after_bytes = -1;
};

/// What Open() found and repaired.
struct RecoveryInfo {
  size_t records = 0;                ///< committed publishes recovered
  size_t tenants = 0;                ///< distinct tenants among them
  uint64_t manifest_bytes = 0;       ///< committed manifest prefix
  uint64_t manifest_torn_bytes = 0;  ///< manifest tail truncated
  uint64_t segment_bytes = 0;        ///< committed segment prefix
  uint64_t segment_torn_bytes = 0;   ///< orphaned segment tail truncated
};

class DurableStore {
 public:
  /// Opens (creating or recovering) the store at `options.dir`. Recovery
  /// checks both file headers (FailedPrecondition, files untouched, for a
  /// foreign, headerless or other-version file), scans the manifest,
  /// validates every referenced segment page, stops at the first record
  /// that fails, and truncates both files to the committed prefix (to
  /// empty when no record survives); recovery() reports what was kept and
  /// discarded.
  static StatusOr<std::unique_ptr<DurableStore>> Open(
      DurableStoreOptions options);

  DurableStore(const DurableStore&) = delete;
  DurableStore& operator=(const DurableStore&) = delete;

  /// One publish of a group: `tenant`'s next snapshot. Non-owning; the
  /// snapshot must outlive the AppendPublishGroup call.
  struct GroupEntry {
    std::string tenant;
    const ReleaseSnapshot* snapshot = nullptr;
  };

  /// Durably commits every entry, in entry order, with one fsync of each
  /// file. Each entry's sequence must be exactly its tenant's latest
  /// committed sequence + 1, and a group names each tenant at most once;
  /// every entry is validated before a byte is written, so an
  /// InvalidArgument leaves the store untouched. When this returns OK
  /// every publish survives any crash. On an IO error nothing commits in
  /// memory, the store wedges (further appends FailedPrecondition), and
  /// the next Open() recovers a prefix of the group's records.
  Status AppendPublishGroup(std::span<const GroupEntry> entries);

  /// A group of one: durably commits `snapshot` for `tenant`.
  Status AppendPublish(const std::string& tenant,
                       const ReleaseSnapshot& snapshot);

  /// Loads any committed snapshot through the buffer pool, decoding it to
  /// a bit-identical ReleaseSnapshot. `profile` (optional) receives the
  /// stored disclosure rider (empty when the publish carried none).
  StatusOr<std::shared_ptr<const ReleaseSnapshot>> LoadSnapshot(
      const std::string& tenant, uint64_t sequence,
      StoredProfile* profile = nullptr) const;

  /// Publishes every tenant's latest committed snapshot into `directory`
  /// (skipping tenants whose slot already holds that sequence or newer),
  /// restoring the exact pre-crash serving state.
  Status RehydrateInto(ServingDirectory* directory) const;

  /// Committed tenant names, sorted.
  std::vector<std::string> tenants() const;

  /// Committed sequences for `tenant`, ascending (empty when unknown).
  std::vector<uint64_t> Sequences(const std::string& tenant) const;

  /// Latest committed sequence for `tenant` (0 when none).
  uint64_t LatestSequence(const std::string& tenant) const;

  struct VerifyReport {
    size_t records = 0;           ///< publishes re-validated
    size_t tenants = 0;
    size_t pages = 0;             ///< segment pages re-read and checksummed
    size_t profiles_checked = 0;  ///< riders recomputed bit-identically
  };

  /// Full offline audit: re-reads every committed segment from disk
  /// (bypassing the buffer pool), replays the dictionary history, decodes
  /// every snapshot, and recomputes each stored disclosure rider,
  /// requiring bit-identical doubles. IOError on the first discrepancy.
  StatusOr<VerifyReport> Verify() const;

  /// Committed manifest records in commit order (for `persist --dump`).
  std::vector<ManifestRecord> records() const;

  const RecoveryInfo& recovery() const { return recovery_; }
  BufferPool::Stats buffer_stats() const { return pool_->stats(); }
  const DurableStoreOptions& options() const { return options_; }

 private:
  struct TenantState {
    LabelDictionary dict;
    std::map<uint64_t, size_t> history;  // sequence -> index into records_
    uint64_t latest = 0;
  };

  explicit DurableStore(DurableStoreOptions options)
      : options_(std::move(options)) {}

  Status Recover();
  /// Appends `bytes` with one write, honouring the test crash seam: when
  /// the append would reach the configured threshold it writes only the
  /// prefix up to it and SIGKILLs the process.
  Status CrashableAppend(AppendFile* file, const std::vector<uint8_t>& bytes);
  /// Reads a segment's pages with one pread, unframes, and validates the
  /// blob against `ref`. Shared by recovery and Verify.
  Status ReadSegmentDirect(const SegmentRef& ref, PageType type,
                           std::vector<uint8_t>* blob) const;
  /// Same, but each page goes through the buffer pool (the load path).
  Status ReadSegmentPooled(const SegmentRef& ref, PageType type,
                           std::vector<uint8_t>* blob) const;

  const DurableStoreOptions options_;
  std::string manifest_path_;
  std::string segments_path_;

  mutable std::mutex mu_;
  AppendFile manifest_;
  AppendFile segments_;
  RandomReadFile reader_;
  std::unique_ptr<BufferPool> pool_;
  std::map<std::string, TenantState> tenants_;
  std::vector<ManifestRecord> records_;
  RecoveryInfo recovery_;
  std::vector<uint8_t> group_pages_;  // one group's segment bytes, reused
  uint64_t appended_bytes_ = 0;  // cumulative, for the crash seam
  bool wedged_ = false;          // an append failed mid-protocol
};

}  // namespace cksafe

#endif  // CKSAFE_PERSIST_DURABLE_STORE_H_
