#include "cksafe/persist/durable_store.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <iterator>
#include <limits>
#include <set>
#include <string_view>
#include <utility>

#include "cksafe/core/disclosure.h"
#include "cksafe/util/check.h"
#include "cksafe/util/string_util.h"

namespace cksafe {
namespace {

constexpr char kManifestFile[] = "MANIFEST";
constexpr char kSegmentsFile[] = "segments.dat";

// Checks a store file whose leading bytes are `head` (the whole file when
// it is shorter than `header`) against `header`, the bytes its header is
// written as. The header's last field is the u32 format version at
// `version_at`, just after the store magic, and only the bytes up to it
// decide: past them, segments.dat's header page holds padding that, as on
// every page, no checksum covers and no reader reads. Returns true when
// the file begins with the whole header, and false when it is fresh: each
// header byte it holds is that byte or still zero, as an absent or empty
// file, or a header write cut short or torn into zero-filled blocks,
// leaves it. Any other bytes are FailedPrecondition.
StatusOr<bool> CheckHeader(const std::string& path,
                           const std::vector<uint8_t>& head,
                           const std::vector<uint8_t>& header,
                           size_t version_at) {
  const size_t significant = version_at + 4;
  if (head.size() >= header.size() &&
      std::equal(header.begin(), header.begin() + significant, head.begin())) {
    return true;
  }
  const size_t n = std::min(head.size(), header.size());
  if (std::equal(head.begin(), head.begin() + n, header.begin(),
                 [](uint8_t got, uint8_t want) {
                   return got == want || got == 0;
                 })) {
    return false;
  }
  if (head.size() >= significant &&
      LoadLittleEndian(head.data() + version_at - 4, 4) == kStoreMagic) {
    const uint64_t version = LoadLittleEndian(head.data() + version_at, 4);
    if (version != kStoreFormatVersion) {
      return Status::FailedPrecondition(StrFormat(
          "%s has store format version %llu; this build reads version %u "
          "and leaves the store untouched",
          path.c_str(), static_cast<unsigned long long>(version),
          kStoreFormatVersion));
    }
  }
  return Status::FailedPrecondition(
      path + " has no valid store header of format version " +
      std::to_string(kStoreFormatVersion) +
      "; not opening it as a store, and leaving it untouched");
}

// A store file's first `limit` bytes; an absent file reads as empty.
StatusOr<std::vector<uint8_t>> ReadHead(const std::string& path,
                                        uint64_t limit) {
  StatusOr<std::vector<uint8_t>> bytes = ReadFileBytes(path, limit);
  if (bytes.status().code() == StatusCode::kNotFound) {
    return std::vector<uint8_t>{};
  }
  return bytes;
}

/// `cache` may be nullptr (the analyzer's private cache).
StoredProfile ComputeProfile(const Bucketization& bucketization,
                             size_t max_k, DisclosureCache* cache) {
  StoredProfile profile;
  if (max_k == 0 || bucketization.num_buckets() == 0) return profile;
  const DisclosureProfile curves =
      DisclosureAnalyzer(bucketization, cache).Profile(max_k);
  profile.implication = curves.implication;
  profile.negation = curves.negation;
  return profile;
}

}  // namespace

StatusOr<std::unique_ptr<DurableStore>> DurableStore::Open(
    DurableStoreOptions options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("durable store needs a directory");
  }
  if (options.buffer_pool_pages == 0) {
    return Status::InvalidArgument("buffer pool needs at least one page");
  }
  if (::mkdir(options.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IOError("mkdir " + options.dir + ": " +
                           std::strerror(errno));
  }
  std::unique_ptr<DurableStore> store(new DurableStore(std::move(options)));
  store->manifest_path_ = store->options_.dir + "/" + kManifestFile;
  store->segments_path_ = store->options_.dir + "/" + kSegmentsFile;
  CKSAFE_RETURN_IF_ERROR(store->Recover());
  return store;
}

Status DurableStore::Recover() {
  // Both headers are checked before either file is opened for writing.
  // A file without its whole header holds no record: a MANIFEST scans as
  // empty, and segments.dat's header is fsynced with the first group's
  // segments, before any record that points at them is written.
  CKSAFE_ASSIGN_OR_RETURN(
      const std::vector<uint8_t> manifest_bytes,
      ReadHead(manifest_path_, std::numeric_limits<uint64_t>::max()));
  CKSAFE_RETURN_IF_ERROR(CheckHeader(manifest_path_, manifest_bytes,
                                     ManifestHeader(), /*version_at=*/4)
                             .status());
  CKSAFE_ASSIGN_OR_RETURN(const std::vector<uint8_t> segments_head,
                          ReadHead(segments_path_, kPageSize));
  CKSAFE_ASSIGN_OR_RETURN(
      const bool segments_whole,
      CheckHeader(segments_path_, segments_head, SegmentsHeader(),
                  /*version_at=*/kPageHeaderSize + 4));

  // Open for appending, creating absent files.
  CKSAFE_RETURN_IF_ERROR(segments_.Open(segments_path_));
  CKSAFE_RETURN_IF_ERROR(manifest_.Open(manifest_path_));
  CKSAFE_RETURN_IF_ERROR(reader_.Open(segments_path_));
  ManifestScan scan = ScanManifest(manifest_bytes);
  if (!segments_whole) scan.records.clear();

  // The manifest scan validated framing; now validate what each record
  // points at. A record only commits if its segments are whole (every
  // page checksums, extents line up, the dictionary delta applies in
  // order, the per-tenant sequence is contiguous); the first failure cuts
  // the committed prefix there — everything after is a torn tail, even
  // records that would individually validate.
  const uint64_t segment_file_size = segments_.size();
  // A segment must start exactly where the committed prefix ends, and end
  // inside the file.
  const auto in_place = [&](const SegmentRef& ref, uint64_t offset) {
    return ref.offset == offset &&
           ref.offset + uint64_t{ref.pages} * kPageSize <= segment_file_size;
  };
  uint64_t segment_end = kPageSize;  // past the header page
  size_t committed = 0;
  std::vector<uint8_t> blob;
  for (const ManifestRecord& record : scan.records) {
    TenantState& state = tenants_[record.tenant];
    if (record.sequence != state.latest + 1) break;
    if (!in_place(record.snapshot, segment_end) ||
        !ReadSegmentDirect(record.snapshot, PageType::kSnapshot, &blob).ok()) {
      break;
    }
    uint64_t end = record.snapshot.offset +
                   uint64_t{record.snapshot.pages} * kPageSize;
    LabelDictionary::Delta delta;
    if (record.has_dict) {
      if (!in_place(record.dict, end) ||
          !ReadSegmentDirect(record.dict, PageType::kDictionary, &blob).ok()) {
        break;
      }
      auto decoded = DecodeDictionaryDelta(blob);
      if (!decoded.ok()) break;
      delta = *std::move(decoded);
      if (delta.first_id != record.dict_first_id ||
          delta.labels.size() != record.dict_count) {
        break;
      }
      end = record.dict.offset + uint64_t{record.dict.pages} * kPageSize;
    }
    // Commit the record in memory.
    if (!delta.empty()) {
      if (!state.dict.Apply(delta).ok()) break;
    }
    state.latest = record.sequence;
    state.history[record.sequence] = records_.size();
    records_.push_back(record);
    segment_end = end;
    ++committed;
  }

  // Tenants that only appeared in discarded records must not linger.
  for (auto it = tenants_.begin(); it != tenants_.end();) {
    it = it->second.latest == 0 ? tenants_.erase(it) : std::next(it);
  }

  // With no record left the store is fresh: both files empty, so the next
  // group writes both headers again.
  const uint64_t manifest_committed =
      committed == 0 ? 0 : scan.record_ends[committed - 1];
  if (committed == 0) segment_end = 0;
  recovery_.records = committed;
  recovery_.tenants = tenants_.size();
  recovery_.manifest_bytes = manifest_committed;
  recovery_.manifest_torn_bytes = manifest_bytes.size() - manifest_committed;
  recovery_.segment_bytes = segment_end;
  recovery_.segment_torn_bytes = segment_file_size - segment_end;

  if (recovery_.manifest_torn_bytes > 0) {
    CKSAFE_RETURN_IF_ERROR(manifest_.Truncate(manifest_committed));
    CKSAFE_RETURN_IF_ERROR(manifest_.Sync());
  }
  if (recovery_.segment_torn_bytes > 0) {
    CKSAFE_RETURN_IF_ERROR(segments_.Truncate(segment_end));
    CKSAFE_RETURN_IF_ERROR(segments_.Sync());
  }

  pool_ = std::make_unique<BufferPool>(&reader_, options_.buffer_pool_pages);
  return Status::OK();
}

Status DurableStore::CrashableAppend(AppendFile* file,
                                     const std::vector<uint8_t>& bytes) {
  if (options_.test_crash_after_bytes >= 0) {
    const uint64_t threshold =
        static_cast<uint64_t>(options_.test_crash_after_bytes);
    if (appended_bytes_ + bytes.size() >= threshold) {
      // The torture test's simulated power cut: write exactly the prefix
      // up to the threshold, then die without flushing, destructing, or
      // syncing anything further.
      CKSAFE_RETURN_IF_ERROR(file->Append(
          bytes.data(), static_cast<size_t>(threshold - appended_bytes_)));
      ::raise(SIGKILL);
    }
  }
  CKSAFE_RETURN_IF_ERROR(file->Append(bytes));
  appended_bytes_ += bytes.size();
  return Status::OK();
}

Status DurableStore::AppendPublish(const std::string& tenant,
                                   const ReleaseSnapshot& snapshot) {
  const GroupEntry entry{tenant, &snapshot};
  return AppendPublishGroup({&entry, 1});
}

Status DurableStore::AppendPublishGroup(std::span<const GroupEntry> entries) {
  // The riders read only the snapshots, so they run before the store
  // mutex is taken and never block concurrent loads. They share one table
  // cache: a round's tenants often publish the same buckets.
  DisclosureCache cache;
  std::vector<StoredProfile> profiles;
  profiles.reserve(entries.size());
  for (const GroupEntry& entry : entries) {
    CKSAFE_CHECK(entry.snapshot != nullptr) << "group entry without snapshot";
    profiles.push_back(ComputeProfile(entry.snapshot->bucketization,
                                      options_.profile_max_k, &cache));
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (wedged_) {
    return Status::FailedPrecondition(
        "durable store wedged by an earlier append failure; reopen to "
        "recover");
  }
  // Validate every entry before writing a byte; a tenant's state is only
  // created when its first publish commits.
  std::set<std::string_view> named;
  for (const GroupEntry& entry : entries) {
    if (entry.tenant.empty()) {
      return Status::InvalidArgument("tenant name must be non-empty");
    }
    if (!named.insert(entry.tenant).second) {
      return Status::InvalidArgument("group names tenant " + entry.tenant +
                                     " twice");
    }
    const auto it = tenants_.find(entry.tenant);
    const uint64_t latest = it == tenants_.end() ? 0 : it->second.latest;
    if (entry.snapshot->sequence != latest + 1) {
      return Status::InvalidArgument(
          "out-of-order publish for tenant " + entry.tenant +
          ": expected sequence " + std::to_string(latest + 1) + ", got " +
          std::to_string(entry.snapshot->sequence));
    }
    // Stored only if it loads again.
    const Bucketization& b = entry.snapshot->bucketization;
    if (static_cast<uint64_t>(b.num_buckets()) * b.sensitive_domain_size() >
        kMaxSnapshotHistogramCells) {
      return Status::InvalidArgument(
          "snapshot for tenant " + entry.tenant +
          " has more histogram cells than a stored snapshot may hold");
    }
  }
  if (entries.empty()) return Status::OK();

  // The protocol: every entry's segments in entry order (the snapshot,
  // then its dictionary delta if it has new labels), encoded straight into
  // pages and appended with one write; one fsync of the segment file;
  // every entry's manifest record, each one a commit point, appended with
  // one write; one fsync of the manifest. A file's header goes out with
  // its first bytes. Any failure wedges the store.
  std::vector<LabelDictionary::Delta> deltas(entries.size());
  std::vector<ManifestRecord> records(entries.size());
  const Status written = [&]() -> Status {
    group_pages_.clear();
    if (segments_.size() == 0) group_pages_ = SegmentsHeader();
    const uint64_t base = segments_.size();
    const LabelDictionary new_tenant_dict;
    for (size_t i = 0; i < entries.size(); ++i) {
      const ReleaseSnapshot& snapshot = *entries[i].snapshot;
      const auto it = tenants_.find(entries[i].tenant);
      ManifestRecord& record = records[i];
      record.tenant = entries[i].tenant;
      record.sequence = snapshot.sequence;
      record.num_rows = snapshot.num_rows;
      record.domain = static_cast<uint32_t>(
          snapshot.bucketization.sensitive_domain_size());
      SegmentWriter snapshot_pages(PageType::kSnapshot, base, &group_pages_);
      EncodeSnapshotBlob(
          snapshot, profiles[i],
          it == tenants_.end() ? new_tenant_dict : it->second.dict,
          &deltas[i], &snapshot_pages);
      record.snapshot = snapshot_pages.Finish();
      if (!deltas[i].empty()) {
        record.has_dict = true;
        record.dict_first_id = deltas[i].first_id;
        record.dict_count = static_cast<uint32_t>(deltas[i].labels.size());
        SegmentWriter dict_pages(PageType::kDictionary, base, &group_pages_);
        EncodeDictionaryDelta(deltas[i], &dict_pages);
        record.dict = dict_pages.Finish();
      }
    }
    CKSAFE_RETURN_IF_ERROR(CrashableAppend(&segments_, group_pages_));
    CKSAFE_RETURN_IF_ERROR(segments_.Sync());
    std::vector<uint8_t> log;
    if (manifest_.size() == 0) log = ManifestHeader();
    for (const ManifestRecord& record : records) {
      const std::vector<uint8_t> bytes = EncodeManifestRecord(record);
      log.insert(log.end(), bytes.begin(), bytes.end());
    }
    CKSAFE_RETURN_IF_ERROR(CrashableAppend(&manifest_, log));
    return manifest_.Sync();
  }();
  if (!written.ok()) {
    wedged_ = true;
    return written;
  }

  // Committed on disk; commit in memory.
  for (size_t i = 0; i < entries.size(); ++i) {
    TenantState& state = tenants_[entries[i].tenant];
    if (!deltas[i].empty()) {
      CKSAFE_CHECK(state.dict.Apply(deltas[i]).ok())
          << "self-staged dictionary delta must apply";
    }
    state.latest = records[i].sequence;
    state.history[records[i].sequence] = records_.size();
    records_.push_back(std::move(records[i]));
  }
  return Status::OK();
}

Status DurableStore::ReadSegmentDirect(const SegmentRef& ref, PageType type,
                                       std::vector<uint8_t>* blob) const {
  std::vector<uint8_t> pages(size_t{ref.pages} * kPageSize);
  CKSAFE_RETURN_IF_ERROR(
      reader_.ReadAt(ref.offset, pages.data(), pages.size()));
  SegmentReader segment(ref, type, blob);
  for (size_t at = 0; at < pages.size(); at += kPageSize) {
    CKSAFE_RETURN_IF_ERROR(segment.AddPage(pages.data() + at));
  }
  return segment.Finish();
}

Status DurableStore::ReadSegmentPooled(const SegmentRef& ref, PageType type,
                                       std::vector<uint8_t>* blob) const {
  CKSAFE_CHECK_EQ(ref.offset % kPageSize, 0u) << "segment offset unaligned";
  const uint64_t first_page = ref.offset / kPageSize;
  SegmentReader segment(ref, type, blob);
  for (uint32_t p = 0; p < ref.pages; ++p) {
    CKSAFE_ASSIGN_OR_RETURN(BufferPool::PageRef page,
                            pool_->Fetch(first_page + p));
    CKSAFE_RETURN_IF_ERROR(segment.AddPage(page.data()));
  }
  return segment.Finish();
}

StatusOr<std::shared_ptr<const ReleaseSnapshot>> DurableStore::LoadSnapshot(
    const std::string& tenant, uint64_t sequence,
    StoredProfile* profile) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto tenant_it = tenants_.find(tenant);
  if (tenant_it == tenants_.end()) {
    return Status::NotFound("unknown tenant: " + tenant);
  }
  const auto seq_it = tenant_it->second.history.find(sequence);
  if (seq_it == tenant_it->second.history.end()) {
    return Status::NotFound("tenant " + tenant + " has no committed sequence " +
                            std::to_string(sequence));
  }
  const ManifestRecord& record = records_[seq_it->second];
  std::vector<uint8_t> blob;
  CKSAFE_RETURN_IF_ERROR(
      ReadSegmentPooled(record.snapshot, PageType::kSnapshot, &blob));
  StoredProfile local_profile;
  CKSAFE_ASSIGN_OR_RETURN(
      std::shared_ptr<const ReleaseSnapshot> snapshot,
      DecodeSnapshotBlob(blob, tenant_it->second.dict, record.domain,
                         &local_profile));
  if (snapshot->sequence != sequence) {
    return Status::IOError("decoded snapshot carries sequence " +
                           std::to_string(snapshot->sequence) +
                           ", record says " + std::to_string(sequence));
  }
  if (profile != nullptr) *profile = std::move(local_profile);
  return snapshot;
}

Status DurableStore::RehydrateInto(ServingDirectory* directory) const {
  CKSAFE_CHECK(directory != nullptr);
  for (const std::string& tenant : tenants()) {
    const uint64_t latest = LatestSequence(tenant);
    if (latest == 0) continue;
    SnapshotStore* store = directory->GetOrAddTenant(tenant);
    const std::shared_ptr<const ReleaseSnapshot> current = store->Current();
    if (current != nullptr && current->sequence >= latest) continue;
    CKSAFE_ASSIGN_OR_RETURN(std::shared_ptr<const ReleaseSnapshot> snapshot,
                            LoadSnapshot(tenant, latest));
    store->Publish(std::move(snapshot));
  }
  return Status::OK();
}

std::vector<std::string> DurableStore::tenants() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, state] : tenants_) names.push_back(name);
  return names;
}

std::vector<uint64_t> DurableStore::Sequences(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> sequences;
  if (const auto it = tenants_.find(tenant); it != tenants_.end()) {
    sequences.reserve(it->second.history.size());
    for (const auto& [sequence, index] : it->second.history) {
      sequences.push_back(sequence);
    }
  }
  return sequences;
}

uint64_t DurableStore::LatestSequence(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.latest;
}

std::vector<ManifestRecord> DurableStore::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

StatusOr<DurableStore::VerifyReport> DurableStore::Verify() const {
  std::lock_guard<std::mutex> lock(mu_);
  VerifyReport report;
  // Replay from the first record with fresh dictionaries: the audit must
  // not trust any in-memory state, only bytes on disk.
  std::map<std::string, LabelDictionary> replay_dicts;
  for (size_t i = 0; i < records_.size(); ++i) {
    const ManifestRecord& record = records_[i];
    const std::string where =
        "record " + std::to_string(i) + " (tenant " + record.tenant +
        ", sequence " + std::to_string(record.sequence) + ")";
    LabelDictionary& dict = replay_dicts[record.tenant];
    if (record.has_dict) {
      std::vector<uint8_t> dict_blob;
      CKSAFE_RETURN_IF_ERROR(
          ReadSegmentDirect(record.dict, PageType::kDictionary, &dict_blob));
      report.pages += record.dict.pages;
      CKSAFE_ASSIGN_OR_RETURN(LabelDictionary::Delta delta,
                              DecodeDictionaryDelta(dict_blob));
      if (delta.first_id != record.dict_first_id ||
          delta.labels.size() != record.dict_count) {
        return Status::IOError("dictionary delta disagrees with manifest at " +
                               where);
      }
      CKSAFE_RETURN_IF_ERROR(dict.Apply(delta));
    }
    std::vector<uint8_t> snap_blob;
    CKSAFE_RETURN_IF_ERROR(
        ReadSegmentDirect(record.snapshot, PageType::kSnapshot, &snap_blob));
    report.pages += record.snapshot.pages;
    StoredProfile stored;
    CKSAFE_ASSIGN_OR_RETURN(std::shared_ptr<const ReleaseSnapshot> snapshot,
                            DecodeSnapshotBlob(snap_blob, dict, record.domain,
                                               &stored));
    if (snapshot->sequence != record.sequence ||
        snapshot->num_rows != record.num_rows) {
      return Status::IOError("snapshot header disagrees with manifest at " +
                             where);
    }
    if (!stored.empty()) {
      // Recompute the disclosure curves from the rehydrated buckets and
      // demand bit-identity — this certifies the decoded bucketization
      // semantically (same worst-case disclosure to the last bit), not
      // just structurally. A fresh analyzer's own cache: the audit trusts
      // no table another record built.
      const StoredProfile fresh =
          ComputeProfile(snapshot->bucketization,
                         stored.implication.size() - 1, /*cache=*/nullptr);
      if (fresh.implication.size() != stored.implication.size() ||
          fresh.negation.size() != stored.negation.size()) {
        return Status::IOError("recomputed profile shape differs at " + where);
      }
      for (size_t k = 0; k < stored.implication.size(); ++k) {
        if (fresh.implication[k] != stored.implication[k] ||
            fresh.negation[k] != stored.negation[k]) {
          return Status::IOError(
              "recomputed disclosure profile differs at " + where +
              ", budget k=" + std::to_string(k));
        }
      }
      ++report.profiles_checked;
    }
    ++report.records;
  }
  report.tenants = replay_dicts.size();
  return report;
}

}  // namespace cksafe
