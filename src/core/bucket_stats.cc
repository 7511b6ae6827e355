#include "cksafe/core/bucket_stats.h"

#include <algorithm>

#include "cksafe/util/check.h"

namespace cksafe {

uint32_t BucketStats::TopSum(size_t j) const {
  return prefix[std::min(j, d())];
}

BucketStats BucketStats::FromHistogram(std::span<const uint32_t> histogram) {
  // One sort key per present value: count descending, then code ascending.
  size_t d = 0;
  for (uint32_t count : histogram) d += count != 0 ? 1 : 0;
  std::vector<uint64_t> keys;
  keys.reserve(d);
  for (size_t code = 0; code < histogram.size(); ++code) {
    if (histogram[code] == 0) continue;
    keys.push_back(uint64_t{~histogram[code]} << 32 | code);
  }
  std::sort(keys.begin(), keys.end());
  BucketStats stats;
  stats.counts.reserve(d);
  stats.value_codes.reserve(d);
  stats.prefix.reserve(d + 1);
  stats.prefix.push_back(0);
  for (uint64_t key : keys) {
    const uint32_t count = ~static_cast<uint32_t>(key >> 32);
    stats.counts.push_back(count);
    stats.value_codes.push_back(static_cast<int32_t>(key & 0xffffffffu));
    stats.n += count;
    stats.prefix.push_back(stats.n);
  }
  return stats;
}

namespace {

// Re-sorts entry `pos` after its count changed, preserving the global
// (count descending, code ascending) order, and rebuilds the prefix sums.
void RestoreOrder(BucketStats* stats, size_t pos) {
  const uint32_t count = stats->counts[pos];
  const int32_t code = stats->value_codes[pos];
  auto before = [&](size_t i) {
    // True iff entry i must precede (count, code).
    if (stats->counts[i] != count) return stats->counts[i] > count;
    return stats->value_codes[i] < code;
  };
  // Bubble left while the predecessor should come after us...
  while (pos > 0 && !before(pos - 1)) {
    std::swap(stats->counts[pos], stats->counts[pos - 1]);
    std::swap(stats->value_codes[pos], stats->value_codes[pos - 1]);
    --pos;
  }
  // ...or right while the successor should come before us.
  while (pos + 1 < stats->counts.size() && before(pos + 1)) {
    std::swap(stats->counts[pos], stats->counts[pos + 1]);
    std::swap(stats->value_codes[pos], stats->value_codes[pos + 1]);
    ++pos;
  }
  stats->prefix.resize(stats->counts.size() + 1);
  stats->prefix[0] = 0;
  for (size_t j = 0; j < stats->counts.size(); ++j) {
    stats->prefix[j + 1] = stats->prefix[j] + stats->counts[j];
  }
}

}  // namespace

void BucketStats::AddValue(int32_t code) {
  ++n;
  for (size_t i = 0; i < value_codes.size(); ++i) {
    if (value_codes[i] == code) {
      ++counts[i];
      RestoreOrder(this, i);
      return;
    }
  }
  counts.push_back(1);
  value_codes.push_back(code);
  RestoreOrder(this, counts.size() - 1);
}

void BucketStats::RemoveValue(int32_t code) {
  for (size_t i = 0; i < value_codes.size(); ++i) {
    if (value_codes[i] != code) continue;
    CKSAFE_CHECK_GT(n, 0u);
    --n;
    if (--counts[i] == 0) {
      counts.erase(counts.begin() + i);
      value_codes.erase(value_codes.begin() + i);
      prefix.resize(counts.size() + 1);
      prefix[0] = 0;
      for (size_t j = 0; j < counts.size(); ++j) {
        prefix[j + 1] = prefix[j] + counts[j];
      }
    } else {
      RestoreOrder(this, i);
    }
    return;
  }
  CKSAFE_CHECK(false) << "RemoveValue: code " << code << " absent from bucket";
}

std::vector<BucketStats> ComputeBucketStats(const Bucketization& b) {
  std::vector<BucketStats> stats;
  stats.reserve(b.num_buckets());
  for (const Bucket& bucket : b.buckets()) {
    stats.push_back(BucketStats::FromHistogram(bucket.histogram));
  }
  return stats;
}

}  // namespace cksafe
