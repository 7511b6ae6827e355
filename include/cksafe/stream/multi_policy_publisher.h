// Multi-tenant publishing: many (c,k) policies served from ONE analysis.
//
// The ROADMAP's "heavy traffic, many scenarios" workload — and the
// many-policies-over-one-table setting of the sequential/multi-release
// literature (Riboni et al.; Xiao/Tao/Koudas, see PAPERS.md) — asks the
// same table to be released under different privacy contracts per tenant,
// and re-released as it grows.
//
// MultiPolicyPublisher holds the growing table, the tenants' policies and
// one DisclosureCache session shared by every tenant and every publish.
// PublishAll is one call of PublishPolicies (search/publisher.h): ONE
// bottom-up Incognito sweep, run as one parallel pass per lattice level,
// whose node profiles are classified against every tenant policy at once
// (DESIGN.md §8.3, §11.4). Sequential release is AddBatch + PublishAll:
// every release is re-verified over all rows so far, and the session cache
// makes the recurring histograms cheap. A one-tenant, one-thread
// MultiPolicyPublisher returns what Publisher::Publish returns.

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
  /// utility objective and permutation seed.
  MultiPolicyPublisher(Table initial, std::vector<QuasiIdentifier> qis,
                       size_t sensitive_column, PublisherOptions base);

  /// Registers a tenant policy; returns its index. May be called between
  /// publishes (new tenants join a live stream).
  size_t AddTenant(std::string tenant, double c, size_t k);

  /// Appends rows (cells per row, schema order) — the streaming growth
  /// path, shared by all tenants. All or nothing: when any row is invalid
  /// the table is left unchanged.
  Status AddBatch(const std::vector<std::vector<int32_t>>& rows);

  /// Publishes every tenant's release from ONE shared multi-policy lattice
  /// sweep over the current table (PublishPolicies). Per-tenant failures
  /// (NotFound for unsatisfiable policies) land in the tenant's slot; the
  /// call itself fails only on table-level errors, or with
  /// InvalidArgument when no tenant is registered. Releases are the same
  /// at every thread count.
  StatusOr<std::vector<TenantRelease>> PublishAll();

  size_t num_tenants() const { return policies_.size(); }
  const Table& table() const { return table_; }
  const DisclosureCache& cache() const { return cache_; }
  /// Shared-work counters of the last PublishAll sweep.
  const MultiPolicySearchStats& last_search_stats() const {
    return last_search_stats_;
  }

  /// The nested name the benchmark harness (perfbench/) uses.
  using BatchTableTraffic = cksafe::BatchTableTraffic;
  /// MINIMIZE1 table traffic of the last PublishAll's sweep.
  const BatchTableTraffic& last_table_traffic() const {
    return last_table_traffic_;
  }

  /// Threading: num_threads sizes the one pool PublishAll owns for the
  /// sweep and the release assembly. Only num_threads is read, so setting
  /// `pool` or `batch_profiler` here has no effect.
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
