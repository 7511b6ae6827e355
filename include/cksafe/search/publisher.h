// End-to-end publishing pipeline: search the generalization lattice for all
// minimal (c,k)-safe nodes, pick the one with the best utility, and emit an
// Anatomy-style release (generalized quasi-identifiers + per-bucket
// permuted sensitive values). This is the workflow Section 3.4 describes:
// Incognito with the k-anonymity check replaced by the (c,k)-safety check,
// then utility-based selection among the minimal safe bucketizations.
// There is one implementation, PublishPolicies, which serves any number of
// policies from one sweep; Publisher and MultiPolicyPublisher call it.

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

/// MINIMIZE1 table traffic of one level pass, as DisclosureCache counts it
/// during the sweep. A profiled node that holds a single-valued bucket is
/// answered in closed form and requests no table (ImplicationProfile);
/// every bucket of every other profiled node requests one (prepare_calls:
/// hits + misses). The shared cache sees one request per distinct
/// histogram per node and counts the node's repeats as hits; only the
/// tables it did not hold yet are built (shared_lookups: misses). The gap
/// is the reuse of tables within nodes and across nodes, levels, policies
/// and publishes.
struct BatchTableTraffic {
  uint64_t prepare_calls = 0;
  uint64_t shared_lookups = 0;
};

/// What one level pass published.
struct PolicyReleases {
  /// One per policy, in order; NotFound for a policy that no
  /// generalization satisfies.
  std::vector<StatusOr<PublishedRelease>> releases;
  /// Shared-work counters of the sweep.
  MultiPolicySearchStats search_stats;
  BatchTableTraffic table_traffic;
};

/// The publish pipeline of Section 3.4 for every policy at once: ONE
/// bottom-up Incognito sweep (FindMinimalSafeNodesMultiPolicy) run as one
/// parallel pass per lattice level over `cache`, then, per policy, the
/// minimal safe node with the best utility (`base.objective`, the first
/// on ties), its residual worst case and its within-bucket permutation
/// (`base.seed`); base.c and base.k are ignored. Minimal safe nodes are
/// scored from the bucket sizes the sweep recorded, and only the chosen
/// ones are bucketized (all of them under kLoss, which reads every row's
/// bucket). `num_threads` counts the
/// calling thread. Releases are the same at every thread count and with
/// any prior cache contents. InvalidArgument on an empty table, OutOfRange
/// when the largest k exceeds the analysis budget; `policies` must not be
/// empty.
StatusOr<PolicyReleases> PublishPolicies(
    const Table& table, const std::vector<QuasiIdentifier>& qis,
    size_t sensitive_column, const PublisherOptions& base,
    const std::vector<CkPolicy>& policies, DisclosureCache* cache,
    size_t num_threads);

/// Runs the search + selection + release pipeline.
class Publisher {
 public:
  explicit Publisher(PublisherOptions options) : options_(options) {}

  /// PublishPolicies with the one policy (c, k), on one thread and a
  /// fresh cache. Returns NotFound when even the fully suppressed table
  /// exceeds the disclosure threshold.
  StatusOr<PublishedRelease> Publish(const Table& table,
                                     const std::vector<QuasiIdentifier>& qis,
                                     size_t sensitive_column) const;

  /// Renders the release for human inspection (bucket table + audit).
  static std::string Summary(const PublishedRelease& release,
                             const Table& table, size_t sensitive_column);

 private:
  PublisherOptions options_;
};

}  // namespace cksafe

#endif  // CKSAFE_SEARCH_PUBLISHER_H_
