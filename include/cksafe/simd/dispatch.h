// Runtime-dispatched SIMD backends for the MINIMIZE2 inner scans.
//
// The hot path of every analyzer query is a handful of min-plus scans over
// contiguous LogProb rows (core/minimize2.cc). This header factors those
// scans into a structure-of-arrays kernel interface so they can be
// vectorized per ISA while the DP driver stays ISA-agnostic:
//
//   * rows are consumed in *reversed* form (rev[j] = row[width - 1 - j]),
//     which turns the anti-diagonal access prev[h - t] of the recurrence
//     into the forward-contiguous read rev[(width - 1 - h) + t] — both
//     operands of every scan then stream left to right, the shape vector
//     loads want;
//   * the monotone-argmin pruning bound travels as a reversed prefix-min
//     companion array (rev_pm), so a backend can decide "this branch can
//     never improve again" from one scalar read.
//
// Backends: a scalar reference (always compiled, the bit-identity anchor)
// and an AVX2 path (compiled when the toolchain allows -mavx2, selected at
// runtime via cpuid so the same binary runs on pre-AVX2 hosts). Other
// hosts, aarch64 included, run the scalar backend. Selection order: test
// override > CKSAFE_SIMD env var (scalar|avx2|auto) > cpuid.
//
// Contract (asserted by simd_kernel_test and the differential fuzz): every
// backend returns results *bit-identical* to the scalar reference — same
// minima, same argmins, same tie-breaks. Vector backends therefore use
// only IEEE adds/mins/compares (never FMA, which contracts rounding), mask
// infeasible lanes to +inf instead of branching, and pick "the first
// position attaining the minimum" exactly like a scalar left-to-right
// strict-improvement scan. Pruning differs only in *granularity*: the
// scalar reference re-checks the monotone bound per element, vector
// backends once per kScanTile tile — both are exact (DESIGN.md §11), so
// the outputs cannot differ, only the work skipped.

#ifndef CKSAFE_SIMD_DISPATCH_H_
#define CKSAFE_SIMD_DISPATCH_H_

#include <cstddef>
#include <cstdint>

#include "cksafe/core/logprob.h"

namespace cksafe {

// Tile width of the inner minimization scans, shared by every backend: the
// unit of cache blocking (a tile touches <= kScanTile consecutive
// previous-row entries) and, for vector backends, of pruning granularity
// (the monotone bound is checked once per tile).
inline constexpr size_t kScanTile = 64;

enum class SimdLevel : int {
  kScalar = 0,
  kAvx2 = 1,
};

/// Human-readable backend name ("scalar", "avx2").
const char* SimdLevelName(SimdLevel level);

/// Both DP cells of one fused MINIMIZE2 scan at budget h, with recorded
/// argmins for witness reconstruction.
struct FusedScanCell {
  LogProb no = kLogInfeasible;   // no_a[i][h]
  uint16_t no_t = 0;             // atoms given to bucket i - 1
  LogProb wa = kLogInfeasible;   // with_a[i][h]
  uint16_t wa_t = 0;
  uint8_t wa_branch = 0;         // 1 iff the target atom joins bucket i - 1
};

/// The kernel operations one backend provides. All row pointers are
/// unaliased and sized >= width (>= h + 1 for the scanned region); `rev_*`
/// arrays are reversed rows produced by prepare_row; `offset` is
/// width - 1 - h, so rev[offset + t] reads the original row at h - t.
struct ScanKernels {
  const char* name;

  /// One pass writing rev[j] = row[width - 1 - j] and its reversed
  /// prefix-min companion rev_pm[j] = min(row[0 .. width - 1 - j]),
  /// folding with std::min semantics (ties keep the earlier element).
  void (*prepare_row)(const LogProb* row, size_t width, LogProb* rev,
                      LogProb* rev_pm);

  /// The fused three-branch MINIMIZE2 scan for one cell pair at budget h:
  ///   no:  min over t of f[t] + rev_no[offset + t]
  ///   wa:  min over t of f[t] + rev_wa[offset + t]           (branch 0)
  ///        and (f[t + 1] + log_ratio) + rev_no[offset + t]   (branch 1)
  /// skipping +inf heads, with monotone-argmin pruning against the rev_pm
  /// bounds, recording the first (t, branch) attaining each minimum in
  /// the scalar interleaved scan order (t ascending, branch 0 before 1).
  /// Reads f[0 .. h + 1].
  void (*fused_scan)(const LogProb* f, double log_ratio,
                     const LogProb* rev_no, const LogProb* rev_wa,
                     const LogProb* rev_pm_no, const LogProb* rev_pm_wa,
                     size_t offset, size_t h, FusedScanCell* out);

  /// The single-branch suffix scan: min over t in [0, h] of
  /// f[t] + rev_next[offset + t], skipping +inf tails, pruned against
  /// rev_pm. Reads f[0 .. h].
  LogProb (*suffix_scan)(const LogProb* f, const LogProb* rev_next,
                         const LogProb* rev_pm, size_t offset, size_t h);

  /// Unpruned min-plus convolution step of the per-bucket sweep:
  /// min over a in [0, h] of head[a] + rev_tail[offset + a], skipping
  /// terms where either operand is +inf; +inf when none are feasible.
  LogProb (*conv_scan)(const LogProb* head, const LogProb* rev_tail,
                       size_t offset, size_t h);

  /// The MINIMIZE1 MinLogRow composition closing the per-bucket sweep:
  /// min over t in [0, k] of (f[t + 1] + log_ratio) + rev_others[t],
  /// skipping +inf rev_others entries; +inf when none are feasible.
  /// Reads f[1 .. k + 1].
  LogProb (*compose_scan)(const LogProb* f, double log_ratio,
                          const LogProb* rev_others, size_t k);
};

/// The best level this binary AND this machine can run (cpuid-gated).
SimdLevel DetectedSimdLevel();

/// True when `level` was compiled in AND the running CPU supports it.
/// kScalar is always usable.
bool SimdLevelUsable(SimdLevel level);

/// The level sweeps will use: test override if set, else CKSAFE_SIMD env
/// override (resolved once), else DetectedSimdLevel().
SimdLevel ActiveSimdLevel();

/// The kernel table for `level`, falling back to scalar when the level is
/// not usable on this binary/machine.
const ScanKernels& ScanKernelsFor(SimdLevel level);

/// Shorthand for ScanKernelsFor(ActiveSimdLevel()). Sweeps resolve this
/// once per entry point, so a concurrent override never tears one sweep.
const ScanKernels& ActiveScanKernels();

/// Test-only override of the active level (still clamped to usable
/// levels). Not synchronized against concurrently *running* sweeps — set
/// it between sweeps, as the differential tests do.
void SetSimdLevelForTest(SimdLevel level);
void ClearSimdLevelForTest();

}  // namespace cksafe

#endif  // CKSAFE_SIMD_DISPATCH_H_
