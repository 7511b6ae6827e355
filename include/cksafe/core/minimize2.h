// MINIMIZE2 (Algorithm 2) as a *forward* sweep over buckets, shared by the
// one-shot DisclosureAnalyzer and the streaming IncrementalAnalyzer.
//
// The DP minimizes R = Pr(¬A ∧ ∧_i ¬A_i | B) / Pr(A | B) over distributions
// of k antecedent atoms (plus the target atom A) among buckets. Processing
// buckets left to right keeps two rows per prefix length:
//
//   no_a[i][h]   min log-product over buckets [0, i) distributing h atoms,
//                target atom A not yet placed;
//   with_a[i][h] same but A placed in one of the first i buckets (its
//                bucket contributes MINIMIZE1(t + 1) · n_b / n_b(s^0_b)).
//
// Since PR 4 the rows are LogProbs (core/logprob.h, DESIGN.md §9): what
// used to be a chained double product — which silently underflows to 0 at
// the bucket counts and budgets the production workloads reach, turning
// "astronomically unlikely" into "certain disclosure" — is now a sum of
// logs that cannot underflow for any input. The kernel is also flat and
// allocation-free on the hot path: rows live in arena-style buffers that
// Reset() reuses across lattice nodes (see Minimize2Workspace), the inner
// minimization scans in cache-resident tiles, and a monotone-argmin prune
// (per-budget MINIMIZE1 minima are nonincreasing, rows are prefix-min
// summarized) cuts the per-cell O(k) scan — exactly, never changing which
// candidate wins (DESIGN.md §9.2). The scans read the previous rows
// reversed, so both operands stream forward (DESIGN.md §11).
//
// Row i depends only on row i - 1 and bucket i - 1, so after a mutation of
// bucket j only rows > j need recomputation — the workhorse behind the
// paper's §3.3.3 incremental-re-analysis remark. Recomputed rows run the
// exact same float operations a from-scratch sweep would, making the
// incremental engine bit-identical to a fresh analysis by induction on rows
// (see DESIGN.md §7.2 and the streaming differential test).

#ifndef CKSAFE_CORE_MINIMIZE2_H_
#define CKSAFE_CORE_MINIMIZE2_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cksafe/core/logprob.h"
#include "cksafe/core/minimize1.h"
#include "cksafe/util/status.h"

namespace cksafe {

/// Per-bucket inputs of the MINIMIZE2 sweep. `ratio` is the 1/Pr(A|B)
/// factor n_b / n_b(s^0_b) of the bucket that receives the target atom.
struct Minimize2Bucket {
  std::shared_ptr<const Minimize1Table> table;
  double ratio = 0.0;
};

/// One bucket's share of a reconstructed worst-case witness: `atoms`
/// antecedent atoms, plus the target atom A when `has_target`.
struct Minimize2Placement {
  uint32_t atoms = 0;
  bool has_target = false;
};

/// The forward MINIMIZE2 sweep for one atom budget k, with row-granular
/// recomputation and recorded argmins for witness reconstruction.
class Minimize2Forward {
 public:
  /// Largest storable atom budget (choice storage is uint16_t; MINIMIZE1
  /// shares the bound). A *storage-format* limit for direct kernel users —
  /// see kMaxAnalysisBudget for the user-facing gate.
  static constexpr size_t kMaxBudget = Minimize1Table::kMaxBudget;

  /// Largest budget the user-facing surfaces accept. Deliberately far
  /// below kMaxBudget: the MINIMIZE1 memo is (min(k, n) + 1)(k + 1)^2
  /// states per distinct histogram, so a budget near the storage limit
  /// would OOM long before the sweep ran — at 512 the pathological
  /// worst case (a bucket with >= k members) stays near 1 GB transiently
  /// and ordinary tables (bucket sizes << k) stay in the tens of MB.
  /// Conservative by design: it ignores n, so small-bucket workloads
  /// that could afford more are still refused; direct kernel users can
  /// go up to kMaxBudget at their own risk.
  static constexpr size_t kMaxAnalysisBudget = 512;

  /// OutOfRange for budgets beyond kMaxAnalysisBudget, OK otherwise.
  /// User-facing surfaces (CLI flags, publisher options, tenant
  /// policies) route through this instead of tripping the constructor
  /// CHECK or an untrappable allocation failure.
  static Status ValidateBudget(size_t k);

  explicit Minimize2Forward(size_t k);

  /// Re-targets the sweep at atom budget k and invalidates all rows while
  /// keeping buffer capacity — the arena reuse that makes per-node
  /// evaluation in the lattice searches allocation-free after warmup.
  void Reset(size_t k);

  size_t k() const { return k_; }
  size_t num_buckets() const { return num_rows_ == 0 ? 0 : num_rows_ - 1; }

  /// Brings the sweep up to date with `buckets`. Rows 0 .. first_dirty
  /// (covering bucket prefixes [0, first_dirty)) are kept from the previous
  /// call and must correspond to an unchanged bucket prefix; rows
  /// first_dirty + 1 .. |buckets| are recomputed. Pass first_dirty = 0 (or
  /// anything >= the previous bucket count on pure appends) accordingly;
  /// a from-scratch computation is Recompute(buckets, 0). When the bucket
  /// list shrank since the previous call the kept prefix is additionally
  /// capped at the new bucket count, and stale tail rows are discarded
  /// (never observable: row queries bound-check against the new count).
  void Recompute(const std::vector<Minimize2Bucket>& buckets,
                 size_t first_dirty);

  /// log R_min = with_a[m][k]: the minimized ratio whose disclosure is
  /// DisclosureFromLogRatio(log R_min). kLogInfeasible iff no feasible
  /// placement exists (only when there are no buckets).
  LogProb LogRMin() const { return LogRMinAt(k_); }

  /// log R_min restricted to atom budget h <= k(): with_a[m][h]. Column h
  /// of the DP runs exactly the float operations a dedicated sweep at
  /// budget h runs (the recurrence — and the pruning bound — for column h
  /// only reads columns <= h of the previous row and MINIMIZE1 minima up
  /// to h + 1), so the value is bit-identical to a fresh
  /// Minimize2Forward(h) over the same buckets — the whole disclosure
  /// profile reads off one sweep.
  LogProb LogRMinAt(size_t h) const;

  /// Per-bucket witness decomposition attaining LogRMin(). CHECK-fails
  /// when LogRMin() is infeasible.
  std::vector<Minimize2Placement> WitnessPlacements() const;

  /// Read access to the no-target log row i (h = 0..k): the prefix
  /// log-products consumed by the per-bucket disclosure sweep. Row i
  /// covers buckets [0, i).
  const LogProb* NoALogRow(size_t i) const;

  /// Full argmin arrays (flattened rows x (k + 1); row 0 unused), exposed
  /// so tests can assert that a dirty-suffix Recompute records every
  /// choice a from-scratch sweep records, not just the witness path.
  const std::vector<uint16_t>& NoChoicesForTest() const {
    return no_choice_t_;
  }
  const std::vector<uint16_t>& WaChoicesForTest() const {
    return wa_choice_t_;
  }
  const std::vector<uint8_t>& WaBranchesForTest() const {
    return wa_choice_branch_;
  }

 private:
  size_t RowIndex(size_t i, size_t h) const { return i * (k_ + 1) + h; }

  size_t k_;
  size_t num_rows_ = 0;  // buckets + 1 once computed
  std::vector<LogProb> no_a_;
  std::vector<LogProb> with_a_;
  // Argmins per row (row 0 unused): atoms assigned to bucket i - 1, and
  // whether the target was placed there (with_a only).
  std::vector<uint16_t> no_choice_t_;
  std::vector<uint16_t> wa_choice_t_;
  std::vector<uint8_t> wa_choice_branch_;
  // Scratch of the scans (core/minimize2.cc): the previous rows reversed
  // (rev[j] = row[k - j]) and their reversed prefix-min pruning
  // companions, rebuilt per row, reused across calls.
  std::vector<LogProb> rev_no_;
  std::vector<LogProb> rev_wa_;
  std::vector<LogProb> rev_pm_no_;
  std::vector<LogProb> rev_pm_wa_;
};

/// Reusable arena for the disclosure hot path: one forward sweep plus the
/// input and suffix buffers every query needs, so repeated per-node
/// evaluations (FindMinimalSafeNodes predicates, multi-policy profilers)
/// stop churning vectors. Not thread safe — use one per worker thread.
/// Reuse never changes results: every query overwrites what it reads.
class Minimize2Workspace {
 public:
  /// The sweep, re-targeted at budget k with all rows invalidated (buffer
  /// capacity kept).
  Minimize2Forward& SweepForBudget(size_t k) {
    if (!dp_.has_value()) {
      dp_.emplace(k);
    } else {
      dp_->Reset(k);
    }
    return *dp_;
  }

  std::vector<Minimize2Bucket> inputs;
  std::vector<LogProb> suffix;

  /// Scratch of the input fill (core/disclosure.cc). `counts` holds
  /// sorted bucket counts back to back, bucket i's at
  /// [count_offsets[i], count_offsets[i + 1]). `first_bucket` is an
  /// open-addressing table from a count vector to the first bucket of
  /// the fill holding it (bucket + 1; 0 = empty): a fill looks each
  /// distinct vector up in the cache once, and its repeats share that
  /// bucket's pin in `inputs`.
  std::vector<uint32_t> counts;
  std::vector<uint32_t> count_offsets;
  std::vector<uint32_t> first_bucket;

 private:
  std::optional<Minimize2Forward> dp_;
};

/// Backward companion of the no-target rows: suffix[i][h] (flattened with
/// width k + 1) is the min log-product distributing h atoms among buckets
/// [i, m). Used by the per-bucket disclosure sweep. Writes into *suffix
/// (resized; contents reused as scratch).
void ComputeNoASuffix(const std::vector<Minimize2Bucket>& buckets, size_t k,
                      std::vector<LogProb>* suffix);

/// Convenience overload allocating the result.
std::vector<LogProb> ComputeNoASuffix(
    const std::vector<Minimize2Bucket>& buckets, size_t k);

/// Definition 5 per bucket: element j is log R_min with the target atom
/// constrained to bucket j, combining `prefix`'s no-target rows with
/// `suffix` (from ComputeNoASuffix over the same buckets and k); the
/// bucket's worst-case disclosure is DisclosureFromLogRatio of it. A
/// bucket with no feasible placement yields kLogZero (disclosure 1.0,
/// the conservative verdict) instead of aborting — unreachable from the
/// analyzers, where every bucket admits a placement (a single person can
/// absorb any budget), but kept total for direct kernel callers.
std::vector<LogProb> PerBucketLogRatioSweep(
    const std::vector<Minimize2Bucket>& buckets, size_t k,
    const Minimize2Forward& prefix, const std::vector<LogProb>& suffix);

}  // namespace cksafe

#endif  // CKSAFE_CORE_MINIMIZE2_H_
