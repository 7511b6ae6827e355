// Maximum disclosure (Definition 6) and (c,k)-safety (Definition 13).
//
// By Theorem 9 the maximum disclosure over L^k_basic is attained by k
// *simple* implications sharing one consequent atom A, so
//
//   Pr(A | B ∧ ∧_i (A_i → A)) = Pr(A|B) / (Pr(¬A ∧ ∧_i ¬A_i | B) + Pr(A|B))
//
// and maximizing disclosure reduces to minimizing
// R = Pr(¬A ∧ ∧ ¬A_i | B) / Pr(A | B). Buckets are independent, so R
// factors into per-bucket MINIMIZE1 terms times n_b / n_b(s^0_b) for the
// bucket holding A; MINIMIZE2 distributes the k atoms over buckets with a
// dynamic program over states (bucket, atoms remaining, A placed?).
//
// Two corrections to the paper's Algorithm-2 listing (see DESIGN.md §4.2):
// the base case returns 1 when all atoms are placed and A has been placed
// (the listing returns ∞ unconditionally), and the initial call has the
// "A placed" flag false (the prose says true; the Input comment says false).
//
// All probability products are carried in log space (core/logprob.h,
// DESIGN.md §9): R_min survives as a finite log even when the linear value
// would underflow to 0, the reported `disclosure` saturates honestly at
// 1.0 (the double cannot say more), and safety verdicts compare log R
// against log((1 - c) / c) so they stay exact in the deep-product regime.
//
// The analyzer also computes the negated-atom worst case (the ℓ-diversity
// adversary of Figure 5): for k negations the maximum is attained by
// negating, for one target person, the k most frequent values other than
// the target value — a special case of the same algebra with every A_i on
// the target person.

#ifndef CKSAFE_CORE_DISCLOSURE_H_
#define CKSAFE_CORE_DISCLOSURE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cksafe/anon/bucketization.h"
#include "cksafe/core/bucket_stats.h"
#include "cksafe/core/logprob.h"
#include "cksafe/core/minimize1.h"
#include "cksafe/core/minimize2.h"
#include "cksafe/core/profile.h"
#include "cksafe/knowledge/formula.h"
#include "cksafe/util/check.h"

namespace cksafe {

/// A worst-case adversary: the maximizing target atom A, the k antecedent
/// atoms A_i, and the resulting disclosure Pr(A | B ∧ ∧(A_i → A)).
struct WorstCaseDisclosure {
  double disclosure = 0.0;
  /// log of the minimized ratio R attaining `disclosure` =
  /// DisclosureFromLogRatio(log_r_min). Exact where `disclosure`
  /// saturates: kLogZero means genuinely certain disclosure, any finite
  /// value means the linear 1.0 is only rounding.
  LogProb log_r_min = kLogInfeasible;
  Atom target;
  std::vector<Atom> antecedents;

  /// The witness as a formula of L^k_basic: one simple implication
  /// A_i -> A per antecedent. (For the negation adversary the antecedents
  /// share the target's person, making each implication the paper's
  /// encoding of ¬A_i.)
  KnowledgeFormula ToFormula() const;
};

/// Shared store of MINIMIZE1 tables keyed by sorted bucket counts.
///
/// Buckets with equal histograms share one O(k^3) table, and the cache can
/// be reused across bucketizations — this is the paper's §3.3.3 remark that
/// re-running after adding x new buckets costs O(|B*|·k + x·k^3). Keys are
/// the count vectors themselves hashed in place (CountsHash): a lookup
/// serializes nothing and allocates nothing.
///
/// DisclosureAnalyzer and ImplicationProfile look each distinct count
/// vector of a sweep's buckets up once: the cache sees one request per
/// distinct histogram per sweep, and the sweep counts its repeats as hits
/// (CountRepeatHits), so hits() + misses() is the number of per-bucket
/// table requests of the sweeps run and misses() the number of tables
/// built. A node ImplicationProfile answers in closed form runs no sweep
/// and requests nothing.
///
/// Thread safe: the key space is sharded over independently locked maps, so
/// one cache may be shared by concurrent DisclosureAnalyzers (the parallel
/// lattice search shares one across all worker threads). Tables are handed
/// out as shared_ptr, so a budget upgrade replacing a shard's entry never
/// invalidates tables already handed out — the historical reference-
/// invalidation hazard of the unique_ptr design (see DESIGN.md §5.2).
class DisclosureCache {
 public:
  /// Returns a table for the bucket with the given sorted counts, valid up
  /// to atom budget `max_k`, computing (or upgrading a smaller cached
  /// table) on miss. The returned table stays valid for the shared_ptr's
  /// lifetime regardless of later upgrades or Clear() — the reuse API the
  /// streaming IncrementalAnalyzer pins its per-bucket tables through.
  std::shared_ptr<const Minimize1Table> GetOrCompute(
      std::span<const uint32_t> sorted_counts, size_t max_k);

  std::shared_ptr<const Minimize1Table> GetOrCompute(const BucketStats& stats,
                                                     size_t max_k) {
    return GetOrCompute(stats.counts, max_k);
  }

  /// Counts `repeats` table requests that a sweep answered from a table it
  /// had already looked up, as hits.
  void CountRepeatHits(uint64_t repeats) {
    hits_.fetch_add(repeats, std::memory_order_relaxed);
  }

  size_t entries() const;
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  void Clear();

 private:
  // 16 shards: enough to make lock collisions rare at the pool sizes the
  // search uses (≤ hardware threads) without bloating the empty cache.
  static constexpr size_t kNumShards = 16;
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::vector<uint32_t>,
                       std::shared_ptr<const Minimize1Table>, CountsHash,
                       CountsEqual>
        tables;
  };

  Shard& ShardFor(std::span<const uint32_t> key);

  std::array<Shard, kNumShards> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

/// Computes worst-case disclosure for one bucketization.
///
/// The const methods only read immutable per-bucket statistics and go
/// through the (thread-safe) cache, so one analyzer may be queried from
/// several threads, and distinct analyzers sharing one cache may run
/// concurrently.
class DisclosureAnalyzer {
 public:
  /// `cache` may be shared across analyzers (and across threads); pass
  /// nullptr for a private cache. The bucketization must outlive the
  /// analyzer and be non-empty.
  explicit DisclosureAnalyzer(const Bucketization& bucketization,
                              DisclosureCache* cache = nullptr);

  /// Maximum disclosure w.r.t. L^k_basic (Definition 6) in O(|B| k^2 +
  /// H k^3) where H is the number of distinct bucket histograms.
  ///
  /// Every query below accepts an optional Minimize2Workspace: pass one
  /// (per thread) on hot paths — repeated per-node lattice evaluations —
  /// to reuse the DP arena instead of reallocating it; results are
  /// identical either way.
  WorstCaseDisclosure MaxDisclosureImplications(
      size_t k, Minimize2Workspace* workspace = nullptr) const;

  /// Maximum disclosure w.r.t. k negated atoms (the ℓ-diversity adversary).
  WorstCaseDisclosure MaxDisclosureNegations(size_t k) const;

  /// Definition 13: max disclosure w.r.t. L^k_basic is < c, decided in log
  /// space (IsSafeLogRatio) directly off the sweep — no witness assembly.
  bool IsCkSafe(double c, size_t k,
                Minimize2Workspace* workspace = nullptr) const;

  /// Per-bucket vulnerability: Definition 5's maximum with the target atom
  /// constrained to members of bucket i (every member of a bucket is
  /// equally vulnerable by exchangeability). Element i is
  /// max over s, φ∈L^k_basic of Pr(t_p = s | B ∧ φ) for p in bucket i.
  /// Computed for all buckets at once with prefix/suffix MINIMIZE2 sweeps
  /// in O(|B| k^2) after table memoization; the maximum over buckets equals
  /// MaxDisclosureImplications(k).disclosure.
  std::vector<double> PerBucketDisclosure(
      size_t k, Minimize2Workspace* workspace = nullptr) const;

  /// Both Figure-5 curves for every k in [0, max_k] from ONE MINIMIZE2
  /// sweep (the per-k values read off columns of the same DP — see
  /// Minimize2Forward::LogRMinAt). Element k of each curve is bit-identical
  /// to the corresponding point query's .disclosure, and implication_log_r
  /// carries the exact log-ratio curve. The implication half runs the
  /// input fill and sweep ImplicationProfile runs.
  DisclosureProfile Profile(size_t max_k,
                            Minimize2Workspace* workspace = nullptr) const;

  /// Thin views over the one-sweep profile machinery (Figure 5 series).
  std::vector<double> ImplicationCurve(
      size_t max_k, Minimize2Workspace* workspace = nullptr) const;
  std::vector<double> NegationCurve(size_t max_k) const;

  const std::vector<BucketStats>& bucket_stats() const { return stats_; }

 private:
  const Bucketization& bucketization_;
  std::vector<BucketStats> stats_;
  mutable DisclosureCache local_cache_;
  DisclosureCache* cache_;
};

/// The implication half of a DisclosureProfile (implication and
/// implication_log_r; negation stays empty) for the buckets of
/// `histograms`, in their order. Needs no members or labels, so a lattice
/// pass profiles a node from its histograms alone. The curves are
/// bit-identical to DisclosureAnalyzer::Profile's implication half over
/// BucketizeAtNode's result at the same node, by one of two paths:
///  * a node with a bucket whose tuples all carry one sensitive value
///    discloses it with certainty at every budget: log R_min is kLogZero
///    and the disclosure 1.0 at every k, in closed form, without touching
///    `cache` or `workspace` (DESIGN.md §11.4 proves these are the sweep's
///    values);
///  * any other node runs the analyzer's input fill and MINIMIZE2 sweep
///    over tables from `cache`. Each bucket's sorted counts go to
///    workspace scratch, not into a BucketStats, and the cache sees one
///    request per distinct count vector (DisclosureCache).
/// When `sum_of_squares` is not null it receives Σ n_b² over the buckets,
/// summed in bucket order in double: the float operations of
/// ComputeUtility's discernibility. `histograms` must not be empty, and
/// `max_k` must be below Minimize1Table::kMaxBudget.
DisclosureProfile ImplicationProfile(const NodeHistograms& histograms,
                                     size_t max_k, DisclosureCache* cache,
                                     Minimize2Workspace* workspace = nullptr,
                                     double* sum_of_squares = nullptr);

/// Materializes the atoms of one bucket's witness partition; atoms for
/// person j use the bucket's top-k_j value codes. Appends to `out`,
/// optionally skipping the (person 0, top value) atom which serves as the
/// target A. Shared by DisclosureAnalyzer and the streaming
/// IncrementalAnalyzer so both reconstruct identical witnesses.
void AppendBucketWitnessAtoms(const std::vector<PersonId>& members,
                              const BucketStats& stats,
                              const std::vector<uint32_t>& partition,
                              bool skip_target_atom, std::vector<Atom>* out);

/// Assembles a WorstCaseDisclosure from MINIMIZE2 witness placements.
/// `members` / `stats` / `tables` are indexed by bucket. `log_r_min` is
/// the sweep's minimized log-ratio (LogRMin).
WorstCaseDisclosure AssembleImplicationWitness(
    LogProb log_r_min, const std::vector<Minimize2Placement>& placements,
    const std::vector<const std::vector<PersonId>*>& members,
    const std::vector<const BucketStats*>& stats,
    const std::vector<Minimize2Bucket>& buckets);

/// The negated-atom worst case restricted to one bucket: best disclosure,
/// the index (into stats.value_codes) of the target value, and the number
/// e of negated values. Scanning buckets in order with a strict ">" over
/// these per-bucket bests reproduces the global MaxDisclosureNegations.
struct BucketNegationBest {
  double disclosure = -1.0;
  size_t value_index = 0;
  size_t negated = 0;
};
BucketNegationBest ComputeBucketNegationBest(const BucketStats& stats,
                                             size_t k);

/// The global negated-atom worst case: per-bucket bests scanned in bucket
/// order (strict ">", so the earliest maximizing bucket wins) with the
/// witness assembled from the winner. Shared by DisclosureAnalyzer and the
/// streaming IncrementalAnalyzer — the single implementation is what keeps
/// the two bit-identical.
WorstCaseDisclosure MaxNegationsOverBuckets(
    const std::vector<const BucketStats*>& stats,
    const std::vector<const std::vector<PersonId>*>& members, size_t k);

/// Reads the entire implication log-ratio curve off a completed forward
/// sweep: element h is with_a[m][h] = log R_min at budget h. Shared by
/// DisclosureAnalyzer and the streaming IncrementalAnalyzer — both emit
/// bit-identical profiles because they literally run this code over the
/// same DP rows. Requires at least one bucket (every column is feasible).
std::vector<LogProb> ImplicationLogRatioCurveFromSweep(
    const Minimize2Forward& dp);

/// The same curve as disclosures: element h is
/// DisclosureFromLogRatio(with_a[m][h]).
std::vector<double> ImplicationCurveFromSweep(const Minimize2Forward& dp);

/// The negation curve for every k in [0, max_k]: element k scans buckets
/// in order with the same strict ">" MaxNegationsOverBuckets uses, so
/// element k equals MaxDisclosureNegations(k).disclosure exactly.
std::vector<double> NegationCurveOverBuckets(
    const std::vector<const BucketStats*>& stats, size_t max_k);

}  // namespace cksafe

#endif  // CKSAFE_CORE_DISCLOSURE_H_
