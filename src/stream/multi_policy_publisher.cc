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

  // Whole-level batching: the sweep hands each level's surviving nodes
  // over at once, and the three phases below turn the per-bucket shard
  // traffic of a per-node profiler into one shared-cache resolution per
  // distinct histogram for the WHOLE level (and, since the view persists
  // across levels, per publish). Each phase is answer-neutral — phase 3
  // runs the exact sweeps a per-node profiler would — so the batch path
  // inherits the bit-identity contract of FindMinimalSafeNodesMultiPolicy.
  Minimize1BatchView batch_tables(&cache_);
  // Bucketizations of the profiled nodes safe under some policy, by lattice
  // code: every tenant's minimal safe nodes are among them.
  std::unordered_map<uint64_t, ScoredBucketization> safe_nodes;
  struct NodeEval {
    std::optional<Bucketization> bucketization;
    std::optional<DisclosureAnalyzer> analyzer;
  };
  const NodeBatchProfiler profile_batch =
      [&](const std::vector<LatticeNode>& batch, ThreadPool* pool)
      -> std::vector<std::optional<DisclosureProfile>> {
    // Phase 1 (parallel): bucketize and compute bucket statistics — no
    // table traffic yet. `evals` is pre-sized, so the analyzers' internal
    // references to their sibling bucketizations stay stable.
    std::vector<NodeEval> evals(batch.size());
    ParallelFor(pool, batch.size(), [&](size_t i) {
      auto bucketization =
          BucketizeAtNode(table_, qis_, batch[i], sensitive_column_);
      if (!bucketization.ok()) {
        record_error(bucketization.status());
        return;
      }
      evals[i].bucketization = *std::move(bucketization);
      evals[i].analyzer.emplace(*evals[i].bucketization, &cache_,
                                &batch_tables);
    });
    // Phase 2 (sequential): resolve every histogram the level needs, once
    // each, at the one budget every sweep below uses (max_k + 1: the
    // target atom joins the k antecedents).
    batch_tables.Thaw();
    for (const NodeEval& eval : evals) {
      if (!eval.analyzer.has_value()) continue;
      for (const BucketStats& stats : eval.analyzer->bucket_stats()) {
        batch_tables.Prepare(stats.counts, max_k + 1);
      }
    }
    batch_tables.Freeze();
    // Phase 3 (parallel): the candidate sweeps, served lock-free from the
    // frozen view. Classification reads only the implication curves, so
    // the negation scan is skipped.
    std::vector<std::optional<DisclosureProfile>> profiles(batch.size());
    ParallelFor(pool, batch.size(), [&](size_t i) {
      if (!evals[i].analyzer.has_value()) return;
      thread_local Minimize2Workspace workspace;
      profiles[i] =
          evals[i].analyzer->Profile(max_k, &workspace,
                                     /*with_negation=*/false);
    });
    for (size_t i = 0; i < batch.size(); ++i) {
      const auto safe = [&](const CkPolicy& policy) {
        return profiles[i]->IsCkSafe(policy.c, policy.k);
      };
      if (!profiles[i].has_value() ||
          std::none_of(policies_.begin(), policies_.end(), safe)) {
        continue;
      }
      safe_nodes.emplace(
          lattice.Encode(batch[i]),
          ScoredBucketization{*std::move(evals[i].bucketization), {}});
    }
    return profiles;
  };

  // The batch profiler answers every level, so no per-node profiler is set.
  MultiPolicySearchOptions search_options;
  search_options.pool = workers.get();
  search_options.batch_profiler = profile_batch;
  MultiPolicySearchResult search = FindMinimalSafeNodesMultiPolicy(
      lattice, NodeProfiler(), policies_, search_options);
  CKSAFE_RETURN_IF_ERROR(first_error);
  last_search_stats_ = search.stats;
  last_table_traffic_ = BatchTableTraffic{
      batch_tables.local_hits() + batch_tables.shared_lookups(),
      batch_tables.shared_lookups()};

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
