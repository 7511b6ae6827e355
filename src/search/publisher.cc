#include "cksafe/search/publisher.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "cksafe/util/string_util.h"
#include "cksafe/util/text_table.h"

namespace cksafe {

namespace {

// A frontier node's bucketization and utility.
struct ScoredBucketization {
  LatticeNode node;
  Bucketization bucketization;
  UtilityMetrics utility;
};

// Assembles a release from the policy's chosen minimal safe node: its
// bucketization and utility, its residual worst case and the published
// permutation. NotFound when the search found no safe node (`chosen` is
// then null). Calls may run concurrently on one cache.
StatusOr<PublishedRelease> BuildRelease(const PublisherOptions& options,
                                        DisclosureCache* cache,
                                        LatticeSearchResult search,
                                        const ScoredBucketization* chosen) {
  if (chosen == nullptr) {
    return Status::NotFound(StrFormat(
        "no (c=%g, k=%zu)-safe generalization exists for this table",
        options.c, options.k));
  }
  DisclosureAnalyzer analyzer(chosen->bucketization, cache);
  PublishedRelease release{chosen->node,
                           chosen->bucketization,
                           chosen->utility,
                           analyzer.MaxDisclosureImplications(options.k),
                           {},
                           std::move(search.minimal_safe_nodes),
                           search.stats};
  Rng rng(options.seed);
  release.published_sensitive =
      chosen->bucketization.SamplePublishedAssignment(&rng);
  return release;
}

}  // namespace

StatusOr<PolicyReleases> PublishPolicies(
    const Table& table, const std::vector<QuasiIdentifier>& qis,
    size_t sensitive_column, const PublisherOptions& base,
    const std::vector<CkPolicy>& policies, DisclosureCache* cache,
    size_t num_threads) {
  CKSAFE_CHECK(cache != nullptr);
  CKSAFE_CHECK(!policies.empty());
  if (table.num_rows() == 0) {
    return Status::InvalidArgument("cannot publish an empty table");
  }
  size_t max_k = 0;
  for (const CkPolicy& policy : policies) max_k = std::max(max_k, policy.k);
  CKSAFE_RETURN_IF_ERROR(Minimize2Forward::ValidateBudget(max_k));
  const GeneralizationLattice lattice =
      GeneralizationLattice::FromQuasiIdentifiers(qis);

  // One pool, owned for this call, runs the sweep and then the assembly.
  std::unique_ptr<ThreadPool> workers;
  if (num_threads > 1) workers = std::make_unique<ThreadPool>(num_threads - 1);

  Status first_error = Status::OK();
  std::mutex error_mu;
  const auto record_error = [&](const Status& status) {
    std::lock_guard<std::mutex> lock(error_mu);
    if (first_error.ok()) first_error = status;
  };

  // One parallel pass per lattice level: each node's task groups the node
  // into bucket histograms and profiles them against the shared cache. No
  // member lists or labels are built: a node rolls up its cheapest child
  // one level down. Every child of a node the sweep still profiles was
  // itself profiled there: a child implied safe under every policy would
  // make the node implied safe too. AtNode covers the bottom node. A
  // rollup's histograms, in order, equal BucketizeAtNode's
  // (bucketize_oracle_test), and ImplicationProfile's curves are
  // DisclosureAnalyzer::Profile's (its input fill and sweep, or their
  // closed form at a node holding a single-valued bucket), so the pass
  // inherits the bit-identity contract of FindMinimalSafeNodesMultiPolicy.
  //
  // The previous level's histograms, by lattice code.
  std::unordered_map<uint64_t, NodeHistograms> below;
  const auto group = [&](const LatticeNode& node) -> StatusOr<NodeHistograms> {
    const NodeHistograms* cheapest = nullptr;
    for (const LatticeNode& child : lattice.Children(node)) {
      const auto it = below.find(lattice.Encode(child));
      if (it != below.end() &&
          (cheapest == nullptr ||
           it->second.num_buckets() < cheapest->num_buckets())) {
        cheapest = &it->second;
      }
    }
    if (cheapest == nullptr) {
      return NodeHistograms::AtNode(table, qis, node, sensitive_column);
    }
    return NodeHistograms::RollUp(table, qis, *cheapest, node,
                                  sensitive_column);
  };
  // Every profiled node's utility but loss, from its bucket sizes, by
  // lattice code: every minimal safe node was profiled.
  std::unordered_map<uint64_t, UtilityMetrics> sized;
  const NodeBatchProfiler profile_level =
      [&](const std::vector<LatticeNode>& level, ThreadPool* pool)
      -> std::vector<std::optional<DisclosureProfile>> {
    std::vector<std::optional<NodeHistograms>> histograms(level.size());
    std::vector<std::optional<DisclosureProfile>> profiles(level.size());
    std::vector<double> discernibility(level.size());
    ParallelFor(pool, level.size(), [&](size_t i) {
      auto grouped = group(level[i]);
      if (!grouped.ok()) {
        record_error(grouped.status());
        return;
      }
      histograms[i] = *std::move(grouped);
      // Classification reads only the implication curves.
      thread_local Minimize2Workspace workspace;
      profiles[i] = ImplicationProfile(*histograms[i], max_k, cache,
                                       &workspace, &discernibility[i]);
    });
    below.clear();
    for (size_t i = 0; i < level.size(); ++i) {
      if (!profiles[i].has_value()) continue;
      sized.emplace(lattice.Encode(level[i]),
                    UtilityFromBucketSizes(level[i], table.num_rows(),
                                           histograms[i]->num_buckets(),
                                           discernibility[i]));
      below.emplace(lattice.Encode(level[i]), *std::move(histograms[i]));
    }
    return profiles;
  };

  // The batch profiler answers every level, so no per-node profiler is set.
  MultiPolicySearchOptions search_options;
  search_options.pool = workers.get();
  search_options.batch_profiler = profile_level;
  const uint64_t requests_before = cache->hits() + cache->misses();
  const uint64_t misses_before = cache->misses();
  MultiPolicySearchResult search = FindMinimalSafeNodesMultiPolicy(
      lattice, NodeProfiler(), policies, search_options);
  below.clear();
  CKSAFE_RETURN_IF_ERROR(first_error);
  PolicyReleases published;
  published.search_stats = search.stats;
  published.table_traffic =
      BatchTableTraffic{cache->hits() + cache->misses() - requests_before,
                        cache->misses() - misses_before};

  // Only frontier nodes are published, and tenants' frontiers overlap:
  // collect the distinct ones.
  const size_t num_policies = policies.size();
  std::vector<std::vector<size_t>> frontiers(num_policies);
  std::vector<const LatticeNode*> distinct;
  std::unordered_map<uint64_t, size_t> index_of;
  for (size_t p = 0; p < num_policies; ++p) {
    for (const LatticeNode& node : search.per_policy[p].minimal_safe_nodes) {
      const auto [it, inserted] =
          index_of.emplace(lattice.Encode(node), distinct.size());
      if (inserted) distinct.push_back(&node);
      frontiers[p].push_back(it->second);
    }
  }
  std::vector<std::optional<ScoredBucketization>> scored(distinct.size());
  const auto bucketize = [&](size_t i) {
    auto bucketization =
        BucketizeAtNode(table, qis, *distinct[i], sensitive_column);
    if (!bucketization.ok()) {
      record_error(bucketization.status());
      return;
    }
    const UtilityMetrics utility =
        ComputeUtility(table, qis, *distinct[i], *bucketization);
    scored[i] = ScoredBucketization{*distinct[i], *std::move(bucketization),
                                    utility};
  };

  // Score each distinct frontier node. Every objective but loss reads only
  // bucket sizes, which the sweep recorded; loss reads every row's bucket,
  // so under it the whole frontier is bucketized first.
  const UtilityObjective objective = base.objective;
  if (objective == UtilityObjective::kLoss) {
    ParallelFor(workers.get(), distinct.size(), bucketize);
    CKSAFE_RETURN_IF_ERROR(first_error);
  }
  std::vector<double> score(distinct.size());
  for (size_t i = 0; i < distinct.size(); ++i) {
    if (scored[i].has_value()) {
      score[i] = UtilityScore(scored[i]->utility, objective);
      continue;
    }
    const auto it = sized.find(lattice.Encode(*distinct[i]));
    CKSAFE_CHECK(it != sized.end()) << "a minimal safe node was not profiled";
    score[i] = UtilityScore(it->second, objective);
  }

  // Each policy publishes its best-scoring node, the first in frontier
  // order on ties. Only the chosen nodes are bucketized, once each.
  std::vector<std::optional<size_t>> chosen(num_policies);
  std::vector<size_t> to_bucketize;
  for (size_t p = 0; p < num_policies; ++p) {
    for (size_t i : frontiers[p]) {
      if (!chosen[p].has_value() || score[i] < score[*chosen[p]]) {
        chosen[p] = i;
      }
    }
    if (chosen[p].has_value() && !scored[*chosen[p]].has_value() &&
        std::find(to_bucketize.begin(), to_bucketize.end(), *chosen[p]) ==
            to_bucketize.end()) {
      to_bucketize.push_back(*chosen[p]);
    }
  }
  ParallelFor(workers.get(), to_bucketize.size(),
              [&](size_t j) { bucketize(to_bucketize[j]); });
  CKSAFE_RETURN_IF_ERROR(first_error);

  std::vector<std::optional<StatusOr<PublishedRelease>>> assembled(
      num_policies);
  ParallelFor(workers.get(), num_policies, [&](size_t p) {
    PublisherOptions options = base;
    options.c = policies[p].c;
    options.k = policies[p].k;
    assembled[p] = BuildRelease(
        options, cache, std::move(search.per_policy[p]),
        chosen[p].has_value() ? &*scored[*chosen[p]] : nullptr);
  });
  published.releases.reserve(num_policies);
  for (std::optional<StatusOr<PublishedRelease>>& release : assembled) {
    published.releases.push_back(*std::move(release));
  }
  return published;
}

StatusOr<PublishedRelease> Publisher::Publish(
    const Table& table, const std::vector<QuasiIdentifier>& qis,
    size_t sensitive_column) const {
  DisclosureCache cache;
  CKSAFE_ASSIGN_OR_RETURN(
      PolicyReleases published,
      PublishPolicies(table, qis, sensitive_column, options_,
                      {CkPolicy{options_.c, options_.k}}, &cache,
                      /*num_threads=*/1));
  return std::move(published.releases.front());
}

std::string Publisher::Summary(const PublishedRelease& release,
                               const Table& table, size_t sensitive_column) {
  const AttributeDef& sensitive = table.schema().attribute(sensitive_column);
  std::string out;
  out += StrFormat("chosen node: [");
  for (size_t i = 0; i < release.node.size(); ++i) {
    out += StrFormat("%s%d", i > 0 ? ", " : "", release.node[i]);
  }
  out += StrFormat("], %zu buckets, worst-case disclosure %.4f\n",
                   release.bucketization.num_buckets(),
                   release.worst_case.disclosure);
  out += StrFormat(
      "utility: discernibility=%.0f avg_class=%.2f height=%.0f loss=%.4f\n",
      release.utility.discernibility, release.utility.avg_class_size,
      release.utility.height, release.utility.loss);
  out += StrFormat("minimal safe nodes: %zu; search evaluated %llu of %llu "
                   "nodes (%llu pruned)\n",
                   release.minimal_safe_nodes.size(),
                   static_cast<unsigned long long>(release.search_stats.evaluations),
                   static_cast<unsigned long long>(release.search_stats.nodes_visited),
                   static_cast<unsigned long long>(release.search_stats.implied_safe));

  TextTable table_out;
  table_out.SetHeader({"bucket", "quasi-identifiers", "n", "sensitive values"});
  const size_t max_rows = 12;
  for (size_t i = 0; i < release.bucketization.num_buckets(); ++i) {
    if (i >= max_rows) {
      table_out.AddRow({"...", "", "", ""});
      break;
    }
    const Bucket& b = release.bucketization.bucket(i);
    std::vector<std::string> values;
    for (size_t s = 0; s < b.histogram.size(); ++s) {
      if (b.histogram[s] == 0) continue;
      values.push_back(StrFormat("%s x%u",
                                 sensitive.LabelOf(static_cast<int32_t>(s)).c_str(),
                                 b.histogram[s]));
    }
    table_out.AddRow({std::to_string(i), b.qi_label,
                      std::to_string(b.size()), Join(values, ", ")});
  }
  out += table_out.Render();
  return out;
}

}  // namespace cksafe
