#include "cksafe/stream/multi_policy_publisher.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace cksafe {

MultiPolicyPublisher::MultiPolicyPublisher(Table initial,
                                           std::vector<QuasiIdentifier> qis,
                                           size_t sensitive_column,
                                           PublisherOptions base)
    : table_(std::move(initial)),
      qis_(std::move(qis)),
      sensitive_column_(sensitive_column),
      base_(base) {
  CKSAFE_CHECK_LT(sensitive_column_, table_.num_columns());
  CKSAFE_CHECK(!qis_.empty());
}

size_t MultiPolicyPublisher::AddTenant(std::string tenant, double c,
                                       size_t k) {
  CKSAFE_CHECK_GT(c, 0.0);
  tenants_.push_back(std::move(tenant));
  policies_.push_back(CkPolicy{c, k});
  return policies_.size() - 1;
}

Status MultiPolicyPublisher::AddBatch(
    const std::vector<std::vector<int32_t>>& rows) {
  for (const std::vector<int32_t>& row : rows) {
    CKSAFE_RETURN_IF_ERROR(table_.AppendRow(row));
  }
  return Status::OK();
}

StatusOr<std::vector<TenantRelease>> MultiPolicyPublisher::PublishAll() {
  if (policies_.empty()) {
    return Status::InvalidArgument("no tenants registered; AddTenant first");
  }
  if (table_.num_rows() == 0) {
    return Status::InvalidArgument("cannot publish an empty table");
  }
  if (!base_.use_pruning) {
    // The multi-policy sweep IS the pruned Incognito algorithm; there is
    // no exhaustive ablation path here, and silently running pruned would
    // break the bit-identity-with-dedicated-Publisher contract for this
    // setting (the ablation path orders frontiers differently).
    return Status::InvalidArgument(
        "MultiPolicyPublisher requires use_pruning; run per-tenant "
        "Publishers for the exhaustive ablation");
  }
  const GeneralizationLattice lattice =
      GeneralizationLattice::FromQuasiIdentifiers(qis_);
  size_t max_k = 0;
  for (const CkPolicy& policy : policies_) max_k = std::max(max_k, policy.k);
  CKSAFE_RETURN_IF_ERROR(Minimize2Forward::ValidateBudget(max_k));

  // One pool, owned for this call, runs the sweep and then the assembly.
  std::unique_ptr<ThreadPool> workers;
  if (search_options_.num_threads > 1) {
    workers = std::make_unique<ThreadPool>(search_options_.num_threads - 1);
  }

  Status first_error = Status::OK();
  std::mutex error_mu;
  const auto record_error = [&](const Status& status) {
    std::lock_guard<std::mutex> lock(error_mu);
    if (first_error.ok()) first_error = status;
  };

  // One parallel pass per lattice level: each node's task bucketizes the
  // node and profiles it against the shared cache. A node rolls up from
  // its cheapest child one level down. Every child of a node the sweep
  // still profiles was itself profiled there: a child implied safe under
  // every policy would make the node implied safe too. BucketizeAtNode
  // covers the bottom node. A rollup equals BucketizeAtNode's result
  // (bucketize_oracle_test), so the pass inherits the bit-identity contract
  // of FindMinimalSafeNodesMultiPolicy.
  //
  // Bucketizations of the profiled nodes safe under some policy, by lattice
  // code: every tenant's minimal safe nodes are among them.
  std::unordered_map<uint64_t, ScoredBucketization> safe_nodes;
  // The previous level's bucketizations: owned in `below_owned` for the
  // unsafe nodes, borrowed from safe_nodes for the safe ones.
  std::unordered_map<uint64_t, const Bucketization*> below;
  std::vector<std::optional<Bucketization>> below_owned;
  const auto bucketize =
      [&](const LatticeNode& node) -> StatusOr<Bucketization> {
    const Bucketization* cheapest = nullptr;
    for (const LatticeNode& child : lattice.Children(node)) {
      const auto it = below.find(lattice.Encode(child));
      if (it != below.end() &&
          (cheapest == nullptr ||
           it->second->num_buckets() < cheapest->num_buckets())) {
        cheapest = it->second;
      }
    }
    if (cheapest == nullptr) {
      return BucketizeAtNode(table_, qis_, node, sensitive_column_);
    }
    return RollUpBucketization(table_, qis_, *cheapest, node,
                               sensitive_column_);
  };
  uint64_t table_requests = 0;
  const NodeBatchProfiler profile_level =
      [&](const std::vector<LatticeNode>& level, ThreadPool* pool)
      -> std::vector<std::optional<DisclosureProfile>> {
    std::vector<std::optional<Bucketization>> bucketizations(level.size());
    std::vector<std::optional<DisclosureProfile>> profiles(level.size());
    ParallelFor(pool, level.size(), [&](size_t i) {
      auto bucketization = bucketize(level[i]);
      if (!bucketization.ok()) {
        record_error(bucketization.status());
        return;
      }
      bucketizations[i] = *std::move(bucketization);
      // Classification reads only the implication curves, so the negation
      // scan is skipped.
      thread_local Minimize2Workspace workspace;
      profiles[i] = DisclosureAnalyzer(*bucketizations[i], &cache_)
                        .Profile(max_k, &workspace, /*with_negation=*/false);
    });
    below.clear();
    for (size_t i = 0; i < level.size(); ++i) {
      if (!profiles[i].has_value()) continue;
      table_requests += bucketizations[i]->num_buckets();
      const uint64_t code = lattice.Encode(level[i]);
      const auto safe = [&](const CkPolicy& policy) {
        return profiles[i]->IsCkSafe(policy.c, policy.k);
      };
      if (std::any_of(policies_.begin(), policies_.end(), safe)) {
        const auto it = safe_nodes.emplace(
            code,
            ScoredBucketization{*std::move(bucketizations[i]), {}}).first;
        below.emplace(code, &it->second.bucketization);
      } else {
        below.emplace(code, &*bucketizations[i]);
      }
    }
    // Moving the vector keeps its elements, and `below`'s pointers, in
    // place; the level before is freed.
    below_owned = std::move(bucketizations);
    return profiles;
  };

  // The batch profiler answers every level, so no per-node profiler is set.
  MultiPolicySearchOptions search_options;
  search_options.pool = workers.get();
  search_options.batch_profiler = profile_level;
  const uint64_t misses_before = cache_.misses();
  MultiPolicySearchResult search = FindMinimalSafeNodesMultiPolicy(
      lattice, NodeProfiler(), policies_, search_options);
  CKSAFE_RETURN_IF_ERROR(first_error);
  last_search_stats_ = search.stats;
  last_table_traffic_ =
      BatchTableTraffic{table_requests, cache_.misses() - misses_before};

  // Utility once per distinct frontier node, then every tenant's release.
  const size_t num_tenants = policies_.size();
  std::vector<std::vector<const ScoredBucketization*>> frontiers(num_tenants);
  std::vector<std::pair<const LatticeNode*, ScoredBucketization*>> to_score;
  std::unordered_set<uint64_t> seen;
  for (size_t t = 0; t < num_tenants; ++t) {
    for (const LatticeNode& node : search.per_policy[t].minimal_safe_nodes) {
      const uint64_t code = lattice.Encode(node);
      const auto it = safe_nodes.find(code);
      CKSAFE_CHECK(it != safe_nodes.end()) << "frontier node was not kept";
      frontiers[t].push_back(&it->second);
      if (seen.insert(code).second) to_score.emplace_back(&node, &it->second);
    }
  }
  ParallelFor(workers.get(), to_score.size(), [&](size_t i) {
    ScoredBucketization& scored = *to_score[i].second;
    scored.utility =
        ComputeUtility(table_, qis_, *to_score[i].first, scored.bucketization);
  });
  std::vector<std::optional<StatusOr<PublishedRelease>>> assembled(
      num_tenants);
  ParallelFor(workers.get(), num_tenants, [&](size_t t) {
    PublisherOptions options = base_;
    options.c = policies_[t].c;
    options.k = policies_[t].k;
    assembled[t] = BuildReleaseFromSearch(
        options, &cache_, std::move(search.per_policy[t]), frontiers[t]);
  });

  std::vector<TenantRelease> releases;
  releases.reserve(num_tenants);
  for (size_t t = 0; t < num_tenants; ++t) {
    releases.push_back(TenantRelease{tenants_[t], policies_[t],
                                     *std::move(assembled[t])});
  }
  return releases;
}

}  // namespace cksafe
