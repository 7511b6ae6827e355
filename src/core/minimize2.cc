#include "cksafe/core/minimize2.h"

#include <algorithm>
#include <cmath>

#include "cksafe/util/check.h"
#include "cksafe/util/string_util.h"

namespace cksafe {
namespace {

// The inner min-plus scans of the three sweeps below. Rows are consumed in
// *reversed* form (rev[j] = row[width - 1 - j]), which turns the
// anti-diagonal read prev[h - t] of the recurrence into the forward read
// rev[offset + t] with offset = width - 1 - h, and the monotone-argmin
// pruning bound travels as a reversed prefix-min companion (rev_pm).
// Candidates are evaluated left to right with strict-improvement updates
// (ties keep the earlier t, and at equal t the wa scan evaluates branch 0
// before branch 1), infeasible (+inf) heads are skipped, and the pruning
// bound is re-checked per element — a NaN bound from (-inf) +
// kLogInfeasible compares false and merely keeps the branch scanning, so
// pruning stays conservative (DESIGN.md §11).

// Tile width of the pruned scans: the cache-blocking unit (a tile touches
// <= kScanTile consecutive previous-row entries).
constexpr size_t kScanTile = 64;

// Both DP cells of one fused scan at budget h, with recorded argmins for
// witness reconstruction.
struct FusedScanCell {
  LogProb no = kLogInfeasible;   // no_a[i][h]
  uint16_t no_t = 0;             // atoms given to bucket i - 1
  LogProb wa = kLogInfeasible;   // with_a[i][h]
  uint16_t wa_t = 0;
  uint8_t wa_branch = 0;         // 1 iff the target atom joins bucket i - 1
};

// One pass writing rev[j] = row[width - 1 - j] and its reversed prefix-min
// companion rev_pm[j] = min(row[0 .. width - 1 - j]), folding with
// std::min semantics (ties keep the earlier element).
void PrepareRow(const LogProb* row, size_t width, LogProb* rev,
                LogProb* rev_pm) {
  LogProb run = kLogInfeasible;
  for (size_t s = 0; s < width; ++s) {
    const size_t j = width - 1 - s;
    rev[j] = row[s];
    run = std::min(run, row[s]);
    rev_pm[j] = run;
  }
}

// The fused three-branch MINIMIZE2 scan for one cell pair at budget h:
//   no:  min over t of f[t] + rev_no[offset + t]
//   wa:  min over t of f[t] + rev_wa[offset + t]           (branch 0)
//        and (f[t + 1] + log_ratio) + rev_no[offset + t]   (branch 1)
// Reads f[0 .. h + 1].
void FusedScan(const LogProb* f, double log_ratio, const LogProb* rev_no,
               const LogProb* rev_wa, const LogProb* rev_pm_no,
               const LogProb* rev_pm_wa, size_t offset, size_t h,
               FusedScanCell* out) {
  // Monotone floors of the per-bucket minima over the remaining scan: f is
  // nonincreasing as stored (clamped in minimize1.cc), so min over t' in
  // [t, h] of f(t') is f[h] and of f(t' + 1) is f[h + 1].
  const LogProb f_floor = f[h];
  const LogProb f_floor_target = f[h + 1] + log_ratio;

  // Monotone-argmin pruning per branch: every remaining candidate at
  // position t is >= floor + rev_pm[offset + t] (f monotone, rev_pm a
  // prefix min of the original row, the bound nondecreasing in t, and
  // floating addition monotone — so the bound holds for the *computed*
  // sums too); once a branch's bound cannot beat its current best that
  // branch stops scanning, never changing which candidate wins. The tile
  // is the cache-blocking unit (<= kScanTile consecutive reversed-row
  // reads per burst).
  LogProb best = kLogInfeasible;
  uint16_t best_t = 0;
  LogProb best_w = kLogInfeasible;
  uint16_t best_w_t = 0;
  uint8_t best_w_branch = 0;
  bool no_done = false;
  bool wa0_done = false;  // branch 0 of with_a (head in the wa row)
  bool wa1_done = false;  // branch 1 of with_a (target joins the bucket)
  for (size_t t0 = 0; t0 <= h && !(no_done && wa0_done && wa1_done);
       t0 += kScanTile) {
    const size_t t_end = std::min(h, t0 + kScanTile - 1);
    for (size_t t = t0; t <= t_end; ++t) {
      const size_t j = offset + t;
      const LogProb pm_no = rev_pm_no[j];
      const LogProb head_no = rev_no[j];
      if (!no_done) {
        if (f_floor + pm_no >= best) {
          no_done = true;
        } else if (head_no != kLogInfeasible) {
          const LogProb candidate = f[t] + head_no;
          if (candidate < best) {
            best = candidate;
            best_t = static_cast<uint16_t>(t);
          }
        }
      }
      // with_a evaluates branch 0 before branch 1 at each t, exactly like
      // the historical kernel, so tie-breaking is unchanged.
      if (!wa0_done) {
        if (f_floor + rev_pm_wa[j] >= best_w) {
          wa0_done = true;
        } else {
          const LogProb head_with = rev_wa[j];
          if (head_with != kLogInfeasible) {
            const LogProb candidate = f[t] + head_with;
            if (candidate < best_w) {
              best_w = candidate;
              best_w_t = static_cast<uint16_t>(t);
              best_w_branch = 0;
            }
          }
        }
      }
      if (!wa1_done) {
        if (f_floor_target + pm_no >= best_w) {
          wa1_done = true;
        } else if (head_no != kLogInfeasible) {
          const LogProb candidate = f[t + 1] + log_ratio + head_no;
          if (candidate < best_w) {
            best_w = candidate;
            best_w_t = static_cast<uint16_t>(t);
            best_w_branch = 1;
          }
        }
      }
      if (no_done && wa0_done && wa1_done) break;
    }
  }
  out->no = best;
  out->no_t = best_t;
  out->wa = best_w;
  out->wa_t = best_w_t;
  out->wa_branch = best_w_branch;
}

// The single-branch suffix scan: min over t in [0, h] of
// f[t] + rev_next[offset + t], skipping +inf tails, pruned against rev_pm.
// Reads f[0 .. h].
LogProb SuffixScan(const LogProb* f, const LogProb* rev_next,
                   const LogProb* rev_pm, size_t offset, size_t h) {
  const LogProb f_floor = f[h];
  LogProb best = kLogInfeasible;
  bool done = false;
  for (size_t t0 = 0; t0 <= h && !done; t0 += kScanTile) {
    const size_t t_end = std::min(h, t0 + kScanTile - 1);
    for (size_t t = t0; t <= t_end; ++t) {
      // rev_pm may be +inf (no feasible tail yet): a NaN bound from
      // (-inf) + inf compares false and merely keeps scanning.
      if (f_floor + rev_pm[offset + t] >= best) {
        done = true;
        break;
      }
      const LogProb tail = rev_next[offset + t];
      if (tail == kLogInfeasible) continue;
      best = std::min(best, f[t] + tail);
    }
  }
  return best;
}

// Unpruned min-plus convolution step of the per-bucket sweep: min over a in
// [0, h] of head[a] + rev_tail[offset + a], skipping terms where either
// operand is +inf; +inf when none are feasible.
LogProb ConvScan(const LogProb* head, const LogProb* rev_tail, size_t offset,
                 size_t h) {
  LogProb best = kLogInfeasible;
  for (size_t a = 0; a <= h; ++a) {
    const LogProb head_v = head[a];
    const LogProb tail_v = rev_tail[offset + a];
    if (head_v == kLogInfeasible || tail_v == kLogInfeasible) continue;
    best = std::min(best, head_v + tail_v);
  }
  return best;
}

// The MINIMIZE1 MinLogRow composition closing the per-bucket sweep: min
// over t in [0, k] of (f[t + 1] + log_ratio) + rev_others[t], skipping +inf
// rev_others entries; +inf when none are feasible. Reads f[1 .. k + 1].
LogProb ComposeScan(const LogProb* f, double log_ratio,
                    const LogProb* rev_others, size_t k) {
  LogProb best = kLogInfeasible;
  for (size_t t = 0; t <= k; ++t) {
    if (rev_others[t] == kLogInfeasible) continue;
    best = std::min(best, f[t + 1] + log_ratio + rev_others[t]);
  }
  return best;
}

}  // namespace

Status Minimize2Forward::ValidateBudget(size_t k) {
  if (k > kMaxAnalysisBudget) {
    return Status::OutOfRange(
        StrFormat("atom budget k=%zu exceeds the supported maximum %zu "
                  "(the O(k^3) MINIMIZE1 memo is intractable beyond it)",
                  k, kMaxAnalysisBudget));
  }
  return Status::OK();
}

Minimize2Forward::Minimize2Forward(size_t k) : k_(k) {
  CKSAFE_CHECK_LE(k, kMaxBudget) << "atom budget too large for choice storage";
}

void Minimize2Forward::Reset(size_t k) {
  CKSAFE_CHECK_LE(k, kMaxBudget) << "atom budget too large for choice storage";
  k_ = k;
  num_rows_ = 0;
}

void Minimize2Forward::Recompute(const std::vector<Minimize2Bucket>& buckets,
                                 size_t first_dirty) {
  const size_t m = buckets.size();
  const size_t width = k_ + 1;
  const size_t rows = m + 1;
  // Row i is derived from row i - 1 and bucket i - 1; a change to bucket j
  // invalidates rows > j, so resume at row first_dirty + 1 — but never
  // beyond what a previous sweep actually computed (row 0, the constant
  // boundary, always counts as computed). Rows kept from a previous sweep
  // are valid exactly when their bucket prefix is unchanged, which is the
  // caller's contract. When the bucket list shrank, first_dirty <= m caps
  // the kept prefix at the surviving buckets and the resize below discards
  // the stale tail rows (audited in the streaming shrink regression test).
  const size_t prev_rows = std::max<size_t>(num_rows_, 1);
  const size_t start = std::min(std::min(first_dirty, m) + 1, prev_rows);

  no_a_.resize(rows * width);
  with_a_.resize(rows * width);
  no_choice_t_.resize(rows * width);
  wa_choice_t_.resize(rows * width);
  wa_choice_branch_.resize(rows * width);
  rev_no_.resize(width);
  rev_wa_.resize(width);
  rev_pm_no_.resize(width);
  rev_pm_wa_.resize(width);
  num_rows_ = rows;

  // Boundary: the empty bucket prefix has the empty product (log 1 = 0)
  // and no way to have placed the target atom.
  no_a_[RowIndex(0, 0)] = 0.0;
  for (size_t h = 1; h < width; ++h) no_a_[RowIndex(0, h)] = kLogInfeasible;
  for (size_t h = 0; h < width; ++h) with_a_[RowIndex(0, h)] = kLogInfeasible;

  for (size_t i = start; i <= m; ++i) {
    const Minimize1Table& table = *buckets[i - 1].table;
    // The with_a recurrence reads budget h + 1 <= k_ + 1 of the table.
    CKSAFE_CHECK_GT(table.max_k(), k_) << "table budget too small for sweep";
    const LogProb* f = table.MinLogRow();  // nonincreasing (clamped)
    const double log_ratio = std::log(buckets[i - 1].ratio);
    const LogProb* no_prev = no_a_.data() + RowIndex(i - 1, 0);
    const LogProb* wa_prev = with_a_.data() + RowIndex(i - 1, 0);

    // Structure-of-arrays row preparation: the previous rows reversed
    // (rev[j] = row[width - 1 - j]) together with their reversed prefix-min
    // pruning companions, so the anti-diagonal read prev[h - t] of the
    // recurrence becomes the forward-contiguous rev[(width - 1 - h) + t].
    // no_prev[0] is always 0 (log of the empty product), so rev_pm_no_ is
    // finite everywhere; rev_pm_wa_ may be kLogInfeasible (row 0).
    PrepareRow(no_prev, width, rev_no_.data(), rev_pm_no_.data());
    PrepareRow(wa_prev, width, rev_wa_.data(), rev_pm_wa_.data());

    // One fused scan per cell pair computes both DP cells, exactly like
    // the historical kernel shared its head reads.
    for (size_t h = 0; h < width; ++h) {
      FusedScanCell cell;
      FusedScan(f, log_ratio, rev_no_.data(), rev_wa_.data(),
                rev_pm_no_.data(), rev_pm_wa_.data(), width - 1 - h, h,
                &cell);
      no_a_[RowIndex(i, h)] = cell.no;
      no_choice_t_[RowIndex(i, h)] = cell.no_t;
      with_a_[RowIndex(i, h)] = cell.wa;
      wa_choice_t_[RowIndex(i, h)] = cell.wa_t;
      wa_choice_branch_[RowIndex(i, h)] = cell.wa_branch;
    }
  }
}

LogProb Minimize2Forward::LogRMinAt(size_t h) const {
  CKSAFE_CHECK_GT(num_rows_, 0u) << "Recompute before querying";
  CKSAFE_CHECK_LE(h, k_);
  return with_a_[RowIndex(num_rows_ - 1, h)];
}

std::vector<Minimize2Placement> Minimize2Forward::WitnessPlacements() const {
  CKSAFE_CHECK(LogRMin() != kLogInfeasible) << "no feasible atom placement";
  const size_t m = num_buckets();
  std::vector<Minimize2Placement> placements(m);
  size_t h = k_;
  bool in_with_a = true;
  for (size_t i = m; i >= 1; --i) {
    uint16_t t;
    if (in_with_a) {
      t = wa_choice_t_[RowIndex(i, h)];
      if (wa_choice_branch_[RowIndex(i, h)] == 1) {
        placements[i - 1].has_target = true;
        in_with_a = false;
      }
    } else {
      t = no_choice_t_[RowIndex(i, h)];
    }
    placements[i - 1].atoms = t;
    h -= t;
  }
  CKSAFE_CHECK(!in_with_a);
  CKSAFE_CHECK_EQ(h, 0u);
  return placements;
}

const LogProb* Minimize2Forward::NoALogRow(size_t i) const {
  CKSAFE_CHECK_LT(i, num_rows_);
  return no_a_.data() + RowIndex(i, 0);
}

void ComputeNoASuffix(const std::vector<Minimize2Bucket>& buckets, size_t k,
                      std::vector<LogProb>* suffix) {
  CKSAFE_CHECK(suffix != nullptr);
  const size_t m = buckets.size();
  const size_t width = k + 1;
  suffix->assign((m + 1) * width, kLogInfeasible);
  (*suffix)[m * width + 0] = 0.0;  // log 1
  // Row i + 1 reversed, with its reversed prefix-min pruning companion.
  std::vector<LogProb> rev_next(width);
  std::vector<LogProb> rev_pm(width);
  for (size_t i = m; i-- > 0;) {
    const LogProb* next = suffix->data() + (i + 1) * width;
    PrepareRow(next, width, rev_next.data(), rev_pm.data());
    const Minimize1Table& table = *buckets[i].table;
    CKSAFE_CHECK_GE(table.max_k(), k) << "table budget too small for sweep";
    const LogProb* f = table.MinLogRow();
    for (size_t h = 0; h < width; ++h) {
      (*suffix)[i * width + h] =
          SuffixScan(f, rev_next.data(), rev_pm.data(), width - 1 - h, h);
    }
  }
}

std::vector<LogProb> ComputeNoASuffix(
    const std::vector<Minimize2Bucket>& buckets, size_t k) {
  std::vector<LogProb> suffix;
  ComputeNoASuffix(buckets, k, &suffix);
  return suffix;
}

std::vector<LogProb> PerBucketLogRatioSweep(
    const std::vector<Minimize2Bucket>& buckets, size_t k,
    const Minimize2Forward& prefix, const std::vector<LogProb>& suffix) {
  const size_t m = buckets.size();
  const size_t width = k + 1;
  CKSAFE_CHECK_EQ(prefix.num_buckets(), m);
  CKSAFE_CHECK_EQ(prefix.k(), k);
  CKSAFE_CHECK_EQ(suffix.size(), (m + 1) * width);

  std::vector<LogProb> result(m);
  std::vector<LogProb> rev_tail(width);
  std::vector<LogProb> rev_others(width);
  for (size_t j = 0; j < m; ++j) {
    // rev_others[t] = others[k - t] = min log-product when k - t atoms go
    // to buckets other than j: the unpruned min-plus convolution of the
    // forward no-target row with the reversed suffix row, built directly
    // in the reversed layout the composition below consumes.
    const LogProb* head_row = prefix.NoALogRow(j);
    const LogProb* tail = suffix.data() + (j + 1) * width;
    for (size_t s = 0; s < width; ++s) rev_tail[width - 1 - s] = tail[s];
    for (size_t h = 0; h < width; ++h) {
      rev_others[width - 1 - h] =
          ConvScan(head_row, rev_tail.data(), width - 1 - h, h);
    }
    // Close with the MINIMIZE1 MinLogRow composition: the bucket absorbs
    // t + 1 atoms (its t antecedent atoms plus the target), the rest go
    // elsewhere. The CHECK keeps the raw row read at t + 1 <= k + 1 in
    // bounds, as MinLogProbability's own guard did historically.
    const double log_ratio = std::log(buckets[j].ratio);
    const Minimize1Table& table = *buckets[j].table;
    CKSAFE_CHECK_GT(table.max_k(), k) << "table budget too small for sweep";
    const LogProb log_r_min =
        ComposeScan(table.MinLogRow(), log_ratio, rev_others.data(), k);
    // No feasible placement for this bucket: report certain disclosure
    // (log R = log 0) rather than aborting. Unreachable from the
    // analyzers — others[0] (head 0, tail 0 atoms) is always feasible —
    // but direct kernel callers stay total (regression-tested with
    // budgets beyond every bucket's distinct values).
    result[j] = log_r_min == kLogInfeasible ? kLogZero : log_r_min;
  }
  return result;
}

}  // namespace cksafe
