// Per-bucket sensitive-value statistics in the form the paper's algorithms
// consume: counts sorted in descending order (s^0_b, s^1_b, ... of Section
// 2.1) with prefix sums.

#ifndef CKSAFE_CORE_BUCKET_STATS_H_
#define CKSAFE_CORE_BUCKET_STATS_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cksafe/anon/bucketization.h"

namespace cksafe {

/// Sorted histogram view of one bucket.
struct BucketStats {
  /// Number of tuples n_b.
  uint32_t n = 0;
  /// Counts of the values present in the bucket, descending (ties broken by
  /// ascending value code for determinism). counts.size() == d, the number
  /// of distinct sensitive values in the bucket.
  std::vector<uint32_t> counts;
  /// value_codes[j] = sensitive code of the j-th most frequent value s^j_b.
  std::vector<int32_t> value_codes;
  /// prefix[j] = counts[0] + ... + counts[j-1]; prefix[0] = 0,
  /// prefix[d] = n.
  std::vector<uint32_t> prefix;

  size_t d() const { return counts.size(); }

  /// Sum of the top min(j, d) counts.
  uint32_t TopSum(size_t j) const;

  /// Builds stats from a histogram indexed by sensitive code.
  static BucketStats FromHistogram(std::span<const uint32_t> histogram);

  /// Delta-friendly updates for streaming: adds/removes one occurrence of
  /// `code`, restoring the (count descending, code ascending) order and the
  /// prefix sums in O(d). The result is identical to rebuilding via
  /// FromHistogram from the updated histogram. RemoveValue CHECK-fails when
  /// the code is absent.
  void AddValue(int32_t code);
  void RemoveValue(int32_t code);

  /// The MINIMIZE1 table depends only on the sorted `counts`, so buckets
  /// with equal count multisets share DP tables; `counts` itself is the
  /// DisclosureCache key (hashed without serialization, see CountsHash).
};

/// Hash over sorted count vectors for DisclosureCache's table map. FNV-1a
/// over the raw 32-bit counts: no per-lookup string serialization or
/// allocation. Transparent, with CountsEqual: a span of counts looks up a
/// vector key without copying it.
struct CountsHash {
  using is_transparent = void;
  size_t operator()(std::span<const uint32_t> counts) const {
    uint64_t h = 1469598103934665603ULL;  // FNV offset basis
    for (uint32_t c : counts) {
      h ^= c;
      h *= 1099511628211ULL;  // FNV prime
    }
    return static_cast<size_t>(h);
  }
};

/// Key equality matching CountsHash: element-wise over any two count
/// sequences.
struct CountsEqual {
  using is_transparent = void;
  bool operator()(std::span<const uint32_t> a,
                  std::span<const uint32_t> b) const {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
};

/// Stats for every bucket of a bucketization, in bucket order.
std::vector<BucketStats> ComputeBucketStats(const Bucketization& b);

}  // namespace cksafe

#endif  // CKSAFE_CORE_BUCKET_STATS_H_
