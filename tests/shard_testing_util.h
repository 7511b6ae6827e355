// Shared helpers for the shard-tier tests: scoped temp directories for
// durable stores, seeded random snapshots, and seeded queries.

#ifndef CKSAFE_TESTS_SHARD_TESTING_UTIL_H_
#define CKSAFE_TESTS_SHARD_TESTING_UTIL_H_

#include <stdlib.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cksafe/serve/query_router.h"
#include "cksafe/serve/release_snapshot.h"
#include "cksafe/util/random.h"
#include "testing_util.h"

namespace cksafe {
namespace testing {

/// mkdtemp under /tmp with recursive removal on destruction.
class ScopedTempDir {
 public:
  ScopedTempDir() {
    char tmpl[] = "/tmp/cksafe-shard-XXXXXX";
    const char* dir = ::mkdtemp(tmpl);
    CKSAFE_CHECK(dir != nullptr);
    path_ = dir;
  }
  ~ScopedTempDir() {
    std::error_code ec;  // best effort; never throw from a destructor
    std::filesystem::remove_all(path_, ec);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A small random snapshot (few buckets, small domain — exact engine).
inline std::shared_ptr<const ReleaseSnapshot> RandomSnapshot(
    Rng* rng, uint64_t sequence, size_t num_buckets = 3,
    size_t domain_size = 3) {
  SyntheticBuckets buckets = MakeBuckets(
      RandomHistograms(rng, num_buckets, domain_size, /*max_bucket=*/4),
      domain_size);
  return MakeReleaseSnapshot(sequence, std::move(buckets.bucketization));
}

/// A mixed-kind query against `tenant`, always in range for snapshots
/// built by RandomSnapshot (buckets >= num_buckets are never probed).
inline Query RandomQuery(Rng* rng, const std::string& tenant,
                         size_t num_buckets = 3, size_t max_k = 5) {
  Query query;
  query.tenant = tenant;
  switch (rng->NextBelow(4)) {
    case 0:
      query.kind = QueryKind::kIsCkSafe;
      query.c = 0.3 + 0.6 * rng->NextDouble();
      break;
    case 1:
      query.kind = QueryKind::kDisclosure;
      break;
    case 2:
      query.kind = QueryKind::kProfileAtK;
      break;
    default:
      query.kind = QueryKind::kPerBucket;
      query.bucket = rng->NextBelow(num_buckets);
      break;
  }
  query.k = rng->NextBelow(max_k + 1);
  return query;
}

}  // namespace testing
}  // namespace cksafe

#endif  // CKSAFE_TESTS_SHARD_TESTING_UTIL_H_
