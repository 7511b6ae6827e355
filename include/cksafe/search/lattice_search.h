// Lattice searches for minimally sanitized bucketizations (Section 3.4).
//
// Theorem 14 (monotonicity): coarsening a bucketization never increases
// maximum disclosure, so "is (c,k)-safe" is a monotone predicate on the
// generalization lattice. That enables
//  * binary search along any maximal chain (logarithmic in chain length),
//  * Incognito-style bottom-up enumeration of *all* ⪯-minimal safe nodes,
//    pruning every ancestor of a discovered safe node without evaluation.
// Both accept an arbitrary monotone predicate, so the same machinery runs
// k-anonymity, ℓ-diversity and (c,k)-safety (the paper's point that the
// safety check simply replaces the k-anonymity check in Incognito).

#ifndef CKSAFE_SEARCH_LATTICE_SEARCH_H_
#define CKSAFE_SEARCH_LATTICE_SEARCH_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "cksafe/core/profile.h"
#include "cksafe/lattice/lattice.h"
#include "cksafe/util/thread_pool.h"

namespace cksafe {

/// Monotone safety predicate over lattice nodes: if it holds at a node it
/// must hold at every coarser node. When the search runs multi-threaded the
/// predicate is invoked concurrently and must be thread safe — a
/// (c,k)-safety predicate qualifies when its DisclosureCache is shared (the
/// cache is internally synchronized) and each invocation builds its own
/// DisclosureAnalyzer.
using NodePredicate = std::function<bool(const LatticeNode&)>;

/// Tuning for FindMinimalSafeNodes. The result is bit-identical across all
/// settings: parallelism batches each BFS level's unpruned predicate
/// evaluations, which are independent by construction (pruning information
/// only ever flows from lower levels to strictly higher ones).
struct LatticeSearchOptions {
  /// Incognito behaviour: ancestors of safe nodes are marked safe without
  /// evaluating the predicate. Off = exhaustive ablation baseline.
  bool use_pruning = true;

  /// Worker threads evaluating the predicate, including the calling
  /// thread; <= 1 means fully sequential. Ignored when `pool` is set.
  size_t num_threads = 1;

  /// Optional externally owned pool (e.g. shared across searches). When
  /// null and num_threads > 1, the search spins up a transient pool.
  ThreadPool* pool = nullptr;
};

/// Counters describing the work a search performed.
struct LatticeSearchStats {
  uint64_t nodes_visited = 0;   ///< nodes considered
  uint64_t evaluations = 0;     ///< predicate evaluations actually run
  uint64_t implied_safe = 0;    ///< nodes skipped by monotonicity pruning
};

/// All ⪯-minimal safe nodes plus search statistics.
struct LatticeSearchResult {
  std::vector<LatticeNode> minimal_safe_nodes;
  LatticeSearchStats stats;
};

/// Bottom-up breadth-first enumeration of all minimal safe nodes.
/// With `use_pruning` (the Incognito behaviour) ancestors of safe nodes are
/// marked safe without evaluating the predicate; without it every node is
/// evaluated (the ablation baseline for the search benchmark).
///
/// Deterministic: minimal_safe_nodes (content and order) and every
/// LatticeSearchStats counter are identical whatever options.num_threads /
/// options.pool are — see the determinism test and DESIGN.md §5.3.
LatticeSearchResult FindMinimalSafeNodes(
    const GeneralizationLattice& lattice, const NodePredicate& is_safe,
    const LatticeSearchOptions& options = {});

/// Least index on `chain` whose node is safe, by binary search; nullopt if
/// the chain's last node is unsafe. The chain must be ordered from specific
/// to general (monotone predicate ⇒ safe indices form a suffix).
std::optional<size_t> ChainBinarySearch(const std::vector<LatticeNode>& chain,
                                        const NodePredicate& is_safe,
                                        LatticeSearchStats* stats = nullptr);

// --- Multi-policy search ----------------------------------------------------

/// One tenant's (c,k)-safety policy (Definition 13 parameters).
struct CkPolicy {
  double c = 0.7;
  size_t k = 3;

  /// True iff safety under *this* policy implies safety under `other` at
  /// the same node: this demands a lower threshold against a stronger
  /// attacker (c <= other.c and k >= other.k), and disclosure is
  /// nondecreasing in k. The policy half of the double monotonicity the
  /// multi-policy search prunes with (the node half is Theorem 14).
  bool Dominates(const CkPolicy& other) const {
    return c <= other.c && k >= other.k;
  }

  bool operator==(const CkPolicy& other) const {
    return c == other.c && k == other.k;
  }
};

/// Evaluates one node's disclosure profile (all budgets 0..max_k at once —
/// one MINIMIZE2 sweep). nullopt means the node cannot be bucketized and
/// counts as unsafe under every policy. Must be thread safe when the
/// search runs multi-threaded, like NodePredicate. Only the implication
/// curves are consulted (IsCkSafe — the exact log-ratio curve when the
/// profiler fills it, the linear curve otherwise), so profilers on hot
/// paths may leave `negation` empty.
using NodeProfiler =
    std::function<std::optional<DisclosureProfile>(const LatticeNode&)>;

/// Whole-level profile evaluator: receives every node of one lattice level
/// that still needs a profile (in the exact order the node-at-a-time path
/// would evaluate them) plus the sweep's pool, and returns positionally
/// aligned results. The contract is pure batching: element i must equal
/// what the sweep's NodeProfiler would return for node i, so a correct
/// batch profiler never changes frontiers, order, or stats — it only
/// amortizes work across the level. See PublishPolicies (publisher.h) for
/// the canonical implementation: one parallel pass per level that rolls
/// each node's bucket histograms up from a child on the level below.
using NodeBatchProfiler =
    std::function<std::vector<std::optional<DisclosureProfile>>(
        const std::vector<LatticeNode>&, ThreadPool*)>;

struct MultiPolicySearchOptions {
  /// Worker threads for batched profile evaluations, including the caller;
  /// <= 1 means sequential. Ignored when `pool` is set.
  size_t num_threads = 1;
  ThreadPool* pool = nullptr;

  /// When set, replaces the per-node fan-out over the NodeProfiler with
  /// one call per level (the NodeProfiler argument is then never called
  /// and may be empty). Must satisfy the NodeBatchProfiler contract above.
  NodeBatchProfiler batch_profiler;
};

/// Shared-work counters of one multi-policy sweep. The per-policy
/// LatticeSearchStats inside MultiPolicySearchResult mirror what a
/// dedicated FindMinimalSafeNodes run would have counted (that is the
/// differential contract); the counters here describe the work actually
/// performed once for everyone: profiles_computed is the size of the
/// UNION of the per-policy evaluation sets, not their sum. When one
/// policy dominates another, every node the dominated policy still needs
/// is also needed by the dominating one (Incognito prunes the dominated
/// policy at least as early at every node), so for a domination chain
/// profiles_computed collapses to exactly the strictest policy's
/// evaluation count — the dominated tenants ride along for free. That is
/// the cross-policy half of the double monotonicity; Theorem 14 ancestor
/// pruning per policy is the lattice half.
struct MultiPolicySearchStats {
  uint64_t profiles_computed = 0;  ///< shared profile evaluations (union)
  uint64_t verdicts = 0;           ///< per-policy verdicts needed
                                   ///< (= Σ per-policy evaluations)

  /// Verdicts answered by a profile some other policy already forced —
  /// the work a per-tenant deployment would have duplicated.
  uint64_t shared_verdicts() const { return verdicts - profiles_computed; }
};

/// Per-policy frontiers (indexed like `policies`) plus shared-work stats.
struct MultiPolicySearchResult {
  std::vector<LatticeSearchResult> per_policy;
  MultiPolicySearchStats stats;
};

/// One bottom-up Incognito sweep serving every (c_i, k_i) policy at once:
/// each surviving node's profile is evaluated ONCE (at max_i k_i) and
/// classified against all policies, with two prunes layered on top of the
/// shared evaluation —
///  * per policy, Theorem 14: ancestors of a policy-safe node are implied
///    safe for that policy (exactly the single-policy Incognito rule);
///  * across policies, double monotonicity: the profile is nondecreasing
///    in k, so one curve settles every (c_i, k_i) at once, and a policy
///    dominated by another never forces a profile of its own (see
///    MultiPolicySearchStats).
/// Every per-policy result (nodes, order, and every LatticeSearchStats
/// counter) is identical to an independent FindMinimalSafeNodes run with
/// that policy's predicate, at any thread count — see the multi-policy
/// differential test.
MultiPolicySearchResult FindMinimalSafeNodesMultiPolicy(
    const GeneralizationLattice& lattice, const NodeProfiler& profile_of,
    const std::vector<CkPolicy>& policies,
    const MultiPolicySearchOptions& options = {});

}  // namespace cksafe

#endif  // CKSAFE_SEARCH_LATTICE_SEARCH_H_
