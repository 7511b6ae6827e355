// Immutable, reference-counted release snapshots — the RCU read unit of
// the serving layer.
//
// A ReleaseSnapshot freezes everything a disclosure query needs about one
// published release: the chosen generalization node, the bucketization at
// that node, and a monotonically increasing per-tenant sequence number.
// Snapshots are immutable after construction and handed around as
// shared_ptr<const ReleaseSnapshot>, so any number of reader threads may
// query one concurrently (DisclosureAnalyzer's const methods are thread
// safe over an immutable bucketization) while a writer swaps in the next
// snapshot — readers holding the old pointer keep a consistent view until
// they drop it, classic read-copy-update.
//
// The bit-identity contract of the serving layer is anchored here: every
// answer the QueryRouter produces names the snapshot sequence it was
// computed against, and equals — with exact double equality — what a fresh
// synchronous DisclosureAnalyzer over that snapshot's bucketization
// returns. A snapshot is therefore also the unit of consistency: an answer
// reflects exactly one published release, never a torn mix of two.

#ifndef CKSAFE_SERVE_RELEASE_SNAPSHOT_H_
#define CKSAFE_SERVE_RELEASE_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "cksafe/anon/bucketization.h"
#include "cksafe/lattice/lattice.h"
#include "cksafe/search/publisher.h"

namespace cksafe {

/// One frozen release, immutable after construction. `sequence` is unique
/// and strictly increasing per tenant (SnapshotStore enforces the
/// monotonicity on publish); 0 is reserved for "no release yet".
struct ReleaseSnapshot {
  uint64_t sequence = 0;      ///< per-tenant publish counter, >= 1
  size_t num_rows = 0;        ///< table rows the release covers
  LatticeNode node;           ///< generalization levels of the release
  Bucketization bucketization{0};  ///< the frozen buckets queries run over
};

/// Every snapshot a writer published, keyed by (tenant, sequence): the
/// registry served answers are verified against (VerifyServedAnswers).
using SnapshotRegistry =
    std::map<std::pair<std::string, uint64_t>,
             std::shared_ptr<const ReleaseSnapshot>>;

/// Freezes a publisher result as a snapshot. Copies the bucketization out
/// of `release` — snapshot construction is a writer-side cost, never paid
/// by readers.
std::shared_ptr<const ReleaseSnapshot> MakeReleaseSnapshot(
    uint64_t sequence, size_t num_rows, const PublishedRelease& release);

/// Builds a snapshot directly from a bucketization (tests, embedders that
/// bypass the lattice search). `node` may be empty.
std::shared_ptr<const ReleaseSnapshot> MakeReleaseSnapshot(
    uint64_t sequence, Bucketization bucketization, LatticeNode node = {});

/// Exact structural equality: sequence, rows, node, and every bucket's
/// label, member list, and histogram, element for element. This is the
/// durable store's round-trip contract — a snapshot decoded from disk must
/// satisfy it against the one that was encoded.
bool SnapshotsBitIdentical(const ReleaseSnapshot& a, const ReleaseSnapshot& b);

}  // namespace cksafe

#endif  // CKSAFE_SERVE_RELEASE_SNAPSHOT_H_
