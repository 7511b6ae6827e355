// End-to-end publishing pipeline: search the generalization lattice for all
// minimal (c,k)-safe nodes, pick the one with the best utility, and emit an
// Anatomy-style release (generalized quasi-identifiers + per-bucket
// permuted sensitive values). This is the workflow Section 3.4 describes:
// Incognito with the k-anonymity check replaced by the (c,k)-safety check,
// then utility-based selection among the minimal safe bucketizations.

#ifndef CKSAFE_SEARCH_PUBLISHER_H_
#define CKSAFE_SEARCH_PUBLISHER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cksafe/anon/bucketization.h"
#include "cksafe/core/disclosure.h"
#include "cksafe/search/lattice_search.h"
#include "cksafe/search/utility.h"

namespace cksafe {

/// Configuration for a publishing run.
struct PublisherOptions {
  /// Disclosure threshold c of (c,k)-safety (Definition 13).
  double c = 0.7;
  /// Attacker power bound: number of basic implications.
  size_t k = 3;
  /// Tie-break among minimal safe nodes (lower score wins).
  UtilityObjective objective = UtilityObjective::kDiscernibility;
  /// Seed for the published within-bucket permutations.
  uint64_t seed = 0x5afe5afeULL;
  /// Incognito-style pruning during the lattice search.
  bool use_pruning = true;
};

/// Carry-over state for sequential releases of a growing table: the shared
/// MINIMIZE1 table cache (histograms recur across releases, making §3.3.3's
/// amortization real) and the previous release's minimal-safe frontier used
/// to warm-start the next lattice search. Reuse is purely an optimization:
/// every release is re-verified from the data it covers, so results are
/// identical to publishing with a fresh session.
struct PublishSession {
  DisclosureCache cache;
  std::vector<LatticeNode> seed_frontier;
  uint64_t releases = 0;
};

/// Result of a successful publishing run.
struct PublishedRelease {
  LatticeNode node;                 ///< chosen generalization levels
  Bucketization bucketization;      ///< buckets at the chosen node
  UtilityMetrics utility;           ///< utility of the chosen node
  WorstCaseDisclosure worst_case;   ///< residual worst-case adversary
  /// Person-indexed sensitive codes after within-bucket permutation — the
  /// column a data consumer would receive.
  std::vector<int32_t> published_sensitive;
  /// All minimal safe nodes found (the chosen one included).
  std::vector<LatticeNode> minimal_safe_nodes;
  LatticeSearchStats search_stats;
};

/// A minimal safe node's bucketization and its utility.
struct ScoredBucketization {
  Bucketization bucketization;
  UtilityMetrics utility;
};

/// Selects the best-utility node among `search.minimal_safe_nodes` and
/// assembles the release (the winner's bucketization and utility, its
/// residual worst case, the published permutation). `frontier[i]` scores
/// search.minimal_safe_nodes[i]; the caller computes each one once, so a
/// node on several tenants' frontiers is bucketized and scored once.
/// NotFound when the frontier is empty. Shared by Publisher and the
/// multi-tenant MultiPolicyPublisher, so a tenant's release from a shared
/// multi-policy search is bit-identical to a dedicated Publisher run by
/// construction. Calls may run concurrently on one cache.
StatusOr<PublishedRelease> BuildReleaseFromSearch(
    const PublisherOptions& options, DisclosureCache* cache,
    LatticeSearchResult search,
    const std::vector<const ScoredBucketization*>& frontier);

/// Runs the search + selection + release pipeline.
class Publisher {
 public:
  explicit Publisher(PublisherOptions options) : options_(options) {}

  /// Returns NotFound when even the fully suppressed table exceeds the
  /// disclosure threshold.
  StatusOr<PublishedRelease> Publish(const Table& table,
                                     const std::vector<QuasiIdentifier>& qis,
                                     size_t sensitive_column) const;

  /// Sequential-release variant: reuses `session`'s table cache, warm-starts
  /// the search from its frontier, and on success stores the new frontier
  /// back. The release is identical to the session-less overload's.
  StatusOr<PublishedRelease> Publish(const Table& table,
                                     const std::vector<QuasiIdentifier>& qis,
                                     size_t sensitive_column,
                                     PublishSession* session) const;

  /// Renders the release for human inspection (bucket table + audit).
  static std::string Summary(const PublishedRelease& release,
                             const Table& table, size_t sensitive_column);

 private:
  PublisherOptions options_;
};

}  // namespace cksafe

#endif  // CKSAFE_SEARCH_PUBLISHER_H_
