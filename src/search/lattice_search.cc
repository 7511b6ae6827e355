#include "cksafe/search/lattice_search.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_set>

namespace cksafe {

namespace {

// Inserts `node` and every strict ancestor into `implied`.
void MarkAncestorsSafe(const GeneralizationLattice& lattice,
                       const LatticeNode& node,
                       std::unordered_set<uint64_t>* implied) {
  for (const LatticeNode& parent : lattice.Parents(node)) {
    const uint64_t code = lattice.Encode(parent);
    if (implied->insert(code).second) {
      MarkAncestorsSafe(lattice, parent, implied);
    }
  }
}

// Evaluates is_safe on every node of `batch`, fanning out over `pool`
// (serial when pool is null). Results are positional, so downstream
// consumption can stay in deterministic batch order.
std::vector<uint8_t> EvaluateBatch(const std::vector<LatticeNode>& batch,
                                   const NodePredicate& is_safe,
                                   ThreadPool* pool) {
  std::vector<uint8_t> safe(batch.size(), 0);
  ParallelFor(pool, batch.size(),
              [&](size_t i) { safe[i] = is_safe(batch[i]) ? 1 : 0; });
  return safe;
}

}  // namespace

LatticeSearchResult FindMinimalSafeNodes(const GeneralizationLattice& lattice,
                                         const NodePredicate& is_safe,
                                         const LatticeSearchOptions& options) {
  // Resolve the threading mode: an owned transient pool only when asked for
  // parallelism without providing one. The pool contributes *extra* threads
  // on top of the calling thread (which participates in ParallelFor), so
  // num_threads = T maps to a pool of T - 1 workers.
  std::unique_ptr<ThreadPool> owned_pool;
  ThreadPool* pool = options.pool;
  if (pool == nullptr && options.num_threads > 1) {
    owned_pool = std::make_unique<ThreadPool>(options.num_threads - 1);
    pool = owned_pool.get();
  }

  LatticeSearchResult result;
  if (options.use_pruning) {
    // Incognito sweep, one BFS level at a time. Ancestor marking only ever
    // targets strictly higher levels, so within one level the surviving
    // nodes' evaluations are independent: batching them over the pool
    // reproduces the sequential visit/evaluation/pruning counts exactly.
    std::unordered_set<uint64_t> implied_safe;
    for (size_t h = 0; h <= lattice.MaxHeight(); ++h) {
      std::vector<LatticeNode> batch;
      for (LatticeNode& node : lattice.NodesAtHeight(h)) {
        ++result.stats.nodes_visited;
        if (implied_safe.count(lattice.Encode(node)) > 0) {
          ++result.stats.implied_safe;
          continue;
        }
        ++result.stats.evaluations;
        batch.push_back(std::move(node));
      }
      const std::vector<uint8_t> safe = EvaluateBatch(batch, is_safe, pool);
      for (size_t i = 0; i < batch.size(); ++i) {
        if (!safe[i]) continue;
        // Bottom-up invariant: a safe strict descendant would have marked
        // this node implied-safe, so this node is minimal.
        result.minimal_safe_nodes.push_back(batch[i]);
        MarkAncestorsSafe(lattice, batch[i], &implied_safe);
      }
    }
    return result;
  }

  // Ablation path: evaluate everything, then filter minimal safe nodes.
  std::unordered_set<uint64_t> safe;
  const std::vector<LatticeNode> all = lattice.AllNodes();
  result.stats.nodes_visited += all.size();
  result.stats.evaluations += all.size();
  const std::vector<uint8_t> is_node_safe = EvaluateBatch(all, is_safe, pool);
  for (size_t i = 0; i < all.size(); ++i) {
    if (is_node_safe[i]) safe.insert(lattice.Encode(all[i]));
  }
  for (const LatticeNode& node : all) {
    if (safe.count(lattice.Encode(node)) == 0) continue;
    bool has_safe_child = false;
    for (const LatticeNode& child : lattice.Children(node)) {
      if (safe.count(lattice.Encode(child)) > 0) {
        has_safe_child = true;
        break;
      }
    }
    if (!has_safe_child) result.minimal_safe_nodes.push_back(node);
  }
  return result;
}

MultiPolicySearchResult FindMinimalSafeNodesMultiPolicy(
    const GeneralizationLattice& lattice, const NodeProfiler& profile_of,
    const std::vector<CkPolicy>& policies,
    const MultiPolicySearchOptions& options) {
  CKSAFE_CHECK(!policies.empty());
  const size_t num_policies = policies.size();

  std::unique_ptr<ThreadPool> owned_pool;
  ThreadPool* pool = options.pool;
  if (pool == nullptr && options.num_threads > 1) {
    owned_pool = std::make_unique<ThreadPool>(options.num_threads - 1);
    pool = owned_pool.get();
  }

  MultiPolicySearchResult result;
  result.per_policy.resize(num_policies);
  std::vector<std::unordered_set<uint64_t>> implied(num_policies);

  for (size_t h = 0; h <= lattice.MaxHeight(); ++h) {
    // Survivors of the level in lexicographic order, each with the set of
    // policies still needing a verdict there; one shared profile per
    // surviving node is batch-evaluated for all of them, then the level
    // is consumed in its original order (per-policy frontier content AND
    // order match the single-policy sweep). The per-policy counters are
    // bumped exactly where a dedicated single-policy sweep would bump
    // them, which is what keeps each per_policy entry bit-identical to an
    // independent FindMinimalSafeNodes run.
    std::vector<LatticeNode> level;
    std::vector<std::vector<uint8_t>> needs;
    for (LatticeNode& node : lattice.NodesAtHeight(h)) {
      const uint64_t code = lattice.Encode(node);
      std::vector<uint8_t> node_needs(num_policies, 0);
      bool any_verdict = false;
      for (size_t p = 0; p < num_policies; ++p) {
        LatticeSearchStats& stats = result.per_policy[p].stats;
        ++stats.nodes_visited;
        if (implied[p].count(code) > 0) {
          ++stats.implied_safe;
          continue;
        }
        ++stats.evaluations;
        ++result.stats.verdicts;
        node_needs[p] = 1;
        any_verdict = true;
      }
      if (!any_verdict) continue;
      level.push_back(std::move(node));
      needs.push_back(std::move(node_needs));
    }

    // One shared profile per surviving node, fanned out over the pool
    // (results positional, so consumption stays deterministic). This is
    // where the double monotonicity pays: the profile is nondecreasing in
    // k, so a single curve classifies every (c_i, k_i) at once, and a
    // dominated policy never forces a profile a dominating policy did not
    // already require (its implied set is a superset, so its needs are a
    // subset — see MultiPolicySearchStats).
    std::vector<std::optional<DisclosureProfile>> profiles;
    if (options.batch_profiler != nullptr && !level.empty()) {
      profiles = options.batch_profiler(level, pool);
      CKSAFE_CHECK_EQ(profiles.size(), level.size())
          << "batch profiler must return one result per node";
    } else {
      profiles.resize(level.size());
      ParallelFor(pool, level.size(),
                  [&](size_t i) { profiles[i] = profile_of(level[i]); });
    }
    result.stats.profiles_computed += level.size();

    for (size_t i = 0; i < level.size(); ++i) {
      const std::optional<DisclosureProfile>& profile = profiles[i];
      for (size_t p = 0; p < num_policies; ++p) {
        if (needs[i][p] == 0) continue;
        const bool is_node_safe =
            profile.has_value() &&
            profile->IsCkSafe(policies[p].c, policies[p].k);
        if (!is_node_safe) continue;
        // Bottom-up invariant per policy: a safe strict descendant would
        // have marked this node implied-safe, so this node is minimal.
        result.per_policy[p].minimal_safe_nodes.push_back(level[i]);
        MarkAncestorsSafe(lattice, level[i], &implied[p]);
      }
    }
  }
  return result;
}

std::optional<size_t> ChainBinarySearch(const std::vector<LatticeNode>& chain,
                                        const NodePredicate& is_safe,
                                        LatticeSearchStats* stats) {
  CKSAFE_CHECK(!chain.empty());
  LatticeSearchStats local;
  LatticeSearchStats* s = stats != nullptr ? stats : &local;

  size_t lo = 0;
  size_t hi = chain.size();  // first safe index in [lo, hi]; hi == none yet
  // Invariant: indices < lo are unsafe; if a safe index exists it is < hi
  // only after we have seen one. Start by testing the top.
  ++s->evaluations;
  ++s->nodes_visited;
  if (!is_safe(chain.back())) return std::nullopt;
  hi = chain.size() - 1;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    ++s->evaluations;
    ++s->nodes_visited;
    if (is_safe(chain[mid])) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return hi;
}

}  // namespace cksafe
