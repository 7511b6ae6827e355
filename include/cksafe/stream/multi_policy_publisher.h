// Multi-tenant publishing: many (c,k) policies served from ONE analysis.
//
// The ROADMAP's "heavy traffic, many scenarios" workload — and the
// many-policies-over-one-table setting of the sequential/multi-release
// literature (Riboni et al.; Xiao/Tao/Koudas, see PAPERS.md) — asks the
// same table to be released under different privacy contracts per tenant.
// Running one Publisher per tenant repeats the expensive part N times:
// every lattice node is re-bucketized and re-swept per policy.
//
// MultiPolicyPublisher instead runs ONE bottom-up Incognito sweep
// (FindMinimalSafeNodesMultiPolicy): each node's disclosure profile is
// computed once at max_i k_i and classified against every tenant policy,
// with double-monotonicity pruning across policies. Tenants share one
// DisclosureCache session across calls (and across AddBatch growth), and
// each tenant's release is assembled by the same BuildReleaseFromSearch
// the single-tenant Publisher uses — so per-tenant output is bit-identical
// to a dedicated Publisher run (differential-tested). Assembly reuses the
// sweep's bucketizations of the frontier nodes, scores each distinct
// frontier node once, and runs the tenants in parallel on the sweep's pool.
// The sweep itself is one parallel pass per lattice level: each node is
// bucketized by rolling up its cheapest child and profiled against the
// shared cache (DESIGN.md §11.4).

#ifndef CKSAFE_STREAM_MULTI_POLICY_PUBLISHER_H_
#define CKSAFE_STREAM_MULTI_POLICY_PUBLISHER_H_

#include <string>
#include <vector>

#include "cksafe/data/table.h"
#include "cksafe/hierarchy/hierarchy.h"
#include "cksafe/search/publisher.h"

namespace cksafe {

/// One tenant's release (or the reason it could not be published — a
/// tenant with an unsatisfiable policy gets NotFound without blocking the
/// other tenants).
struct TenantRelease {
  std::string tenant;
  CkPolicy policy;
  StatusOr<PublishedRelease> release;
};

class MultiPolicyPublisher {
 public:
  /// `base` supplies everything except (c,k), which is per tenant:
  /// utility objective and permutation seed. base.use_pruning must stay
  /// true — the shared sweep is inherently the pruned Incognito, and
  /// PublishAll rejects the ablation setting rather than silently
  /// diverging from what a dedicated Publisher would do with it.
  MultiPolicyPublisher(Table initial, std::vector<QuasiIdentifier> qis,
                       size_t sensitive_column, PublisherOptions base);

  /// Registers a tenant policy; returns its index. May be called between
  /// publishes (new tenants join a live stream).
  size_t AddTenant(std::string tenant, double c, size_t k);

  /// Appends rows (cells per row, schema order) — the streaming growth
  /// path, shared by all tenants.
  Status AddBatch(const std::vector<std::vector<int32_t>>& rows);

  /// Publishes every tenant's release from ONE shared multi-policy lattice
  /// sweep over the current table. Per-tenant failures (NotFound for
  /// unsatisfiable policies) land in the tenant's slot; the call itself
  /// fails only on table-level errors. Releases are the same at every
  /// thread count.
  StatusOr<std::vector<TenantRelease>> PublishAll();

  size_t num_tenants() const { return policies_.size(); }
  const Table& table() const { return table_; }
  const DisclosureCache& cache() const { return cache_; }
  /// Shared-work counters of the last PublishAll sweep.
  const MultiPolicySearchStats& last_search_stats() const {
    return last_search_stats_;
  }

  /// MINIMIZE1 table traffic of the last PublishAll's sweep. Every bucket
  /// of every profiled node requests a table from the shared cache
  /// (prepare_calls); only the tables the cache did not hold yet are built
  /// (shared_lookups: DisclosureCache misses during the sweep). The gap is
  /// the reuse of tables across nodes, levels, tenants and publishes.
  struct BatchTableTraffic {
    uint64_t prepare_calls = 0;
    uint64_t shared_lookups = 0;
  };
  const BatchTableTraffic& last_table_traffic() const {
    return last_table_traffic_;
  }

  /// Threading: num_threads sizes the one pool PublishAll owns for the
  /// sweep and the release assembly. Only num_threads is read: PublishAll
  /// installs its own pool and batch profiler, so setting `pool` or
  /// `batch_profiler` here has no effect.
  MultiPolicySearchOptions* mutable_search_options() {
    return &search_options_;
  }

 private:
  Table table_;
  std::vector<QuasiIdentifier> qis_;
  size_t sensitive_column_;
  PublisherOptions base_;
  std::vector<std::string> tenants_;
  std::vector<CkPolicy> policies_;
  MultiPolicySearchOptions search_options_;
  /// The session state shared by every tenant and every publish: MINIMIZE1
  /// tables recur across lattice nodes, policies, and stream batches.
  DisclosureCache cache_;
  MultiPolicySearchStats last_search_stats_;
  BatchTableTraffic last_table_traffic_;
};

}  // namespace cksafe

#endif  // CKSAFE_STREAM_MULTI_POLICY_PUBLISHER_H_
