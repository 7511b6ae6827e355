#include "cksafe/search/publisher.h"

#include "cksafe/util/string_util.h"
#include "cksafe/util/text_table.h"

namespace cksafe {

StatusOr<PublishedRelease> Publisher::Publish(
    const Table& table, const std::vector<QuasiIdentifier>& qis,
    size_t sensitive_column) const {
  PublishSession local_session;
  return Publish(table, qis, sensitive_column, &local_session);
}

StatusOr<PublishedRelease> BuildReleaseFromSearch(
    const PublisherOptions& options, DisclosureCache* cache,
    LatticeSearchResult search,
    const std::vector<const ScoredBucketization*>& frontier) {
  CKSAFE_CHECK(cache != nullptr);
  CKSAFE_CHECK_EQ(frontier.size(), search.minimal_safe_nodes.size());
  if (frontier.empty()) {
    return Status::NotFound(StrFormat(
        "no (c=%g, k=%zu)-safe generalization exists for this table",
        options.c, options.k));
  }

  // Pick the minimal safe node with the best utility (the first on ties).
  size_t best = 0;
  for (size_t i = 1; i < frontier.size(); ++i) {
    if (UtilityScore(frontier[i]->utility, options.objective) <
        UtilityScore(frontier[best]->utility, options.objective)) {
      best = i;
    }
  }
  const ScoredBucketization& chosen = *frontier[best];
  DisclosureAnalyzer analyzer(chosen.bucketization, cache);

  PublishedRelease release{search.minimal_safe_nodes[best],
                           chosen.bucketization,
                           chosen.utility,
                           analyzer.MaxDisclosureImplications(options.k),
                           {},
                           std::move(search.minimal_safe_nodes),
                           search.stats};
  Rng rng(options.seed);
  release.published_sensitive =
      chosen.bucketization.SamplePublishedAssignment(&rng);
  return release;
}

StatusOr<PublishedRelease> Publisher::Publish(
    const Table& table, const std::vector<QuasiIdentifier>& qis,
    size_t sensitive_column, PublishSession* session) const {
  CKSAFE_CHECK(session != nullptr);
  if (table.num_rows() == 0) {
    return Status::InvalidArgument("cannot publish an empty table");
  }
  CKSAFE_RETURN_IF_ERROR(Minimize2Forward::ValidateBudget(options_.k));
  const GeneralizationLattice lattice =
      GeneralizationLattice::FromQuasiIdentifiers(qis);

  // One shared MINIMIZE1 cache across all nodes (and, via the session,
  // across sequential releases): buckets recur across lattice nodes, so
  // this is the paper's incremental-recomputation win.
  DisclosureCache& cache = session->cache;
  Status first_error = Status::OK();
  auto is_safe = [&](const LatticeNode& node) {
    auto bucketization = BucketizeAtNode(table, qis, node, sensitive_column);
    if (!bucketization.ok()) {
      if (first_error.ok()) first_error = bucketization.status();
      return false;
    }
    // One DP arena per worker thread: per-node evaluations reuse the row
    // buffers instead of reallocating them (values are unaffected).
    thread_local Minimize2Workspace workspace;
    DisclosureAnalyzer analyzer(*bucketization, &cache);
    return analyzer.IsCkSafe(options_.c, options_.k, &workspace);
  };

  LatticeSearchOptions search_options;
  search_options.use_pruning = options_.use_pruning;
  if (options_.use_pruning) search_options.seed_frontier = session->seed_frontier;
  LatticeSearchResult search =
      FindMinimalSafeNodes(lattice, is_safe, search_options);
  CKSAFE_RETURN_IF_ERROR(first_error);
  std::vector<ScoredBucketization> scored;
  for (const LatticeNode& node : search.minimal_safe_nodes) {
    CKSAFE_ASSIGN_OR_RETURN(
        Bucketization bucketization,
        BucketizeAtNode(table, qis, node, sensitive_column));
    const UtilityMetrics utility =
        ComputeUtility(table, qis, node, bucketization);
    scored.push_back({std::move(bucketization), utility});
  }
  std::vector<const ScoredBucketization*> frontier;
  for (const ScoredBucketization& entry : scored) frontier.push_back(&entry);
  CKSAFE_ASSIGN_OR_RETURN(
      PublishedRelease release,
      BuildReleaseFromSearch(options_, &cache, std::move(search), frontier));
  session->seed_frontier = release.minimal_safe_nodes;
  ++session->releases;
  return release;
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
