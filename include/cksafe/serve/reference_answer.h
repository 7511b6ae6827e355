// The reference every served answer must equal, with exact `==` on every
// field (DESIGN.md §10.3, §13.4): what a fresh synchronous
// DisclosureAnalyzer over the one snapshot the answer names returns, from
// each kind's dedicated point query rather than the router's shared sweep.

#ifndef CKSAFE_SERVE_REFERENCE_ANSWER_H_
#define CKSAFE_SERVE_REFERENCE_ANSWER_H_

#include <vector>

#include "cksafe/core/disclosure.h"
#include "cksafe/serve/query_router.h"
#include "cksafe/serve/release_snapshot.h"
#include "cksafe/util/status.h"

namespace cksafe {

/// What `analyzer`, built over `snapshot.bucketization`, answers to
/// `query`, filling exactly the fields the QueryRouter fills:
///  * kIsCkSafe: `disclosure` and `log_r` from MaxDisclosureImplications(k),
///    and `safe` = IsSafeLogRatio(log_r, c).
///  * kDisclosure: the same, with `safe` left false.
///  * kProfileAtK: `disclosure`, `log_r` and `negation` from column k of
///    Profile(k).
///  * kPerBucket: `disclosure` = PerBucketDisclosure(k)[bucket], `log_r`
///    left kLogInfeasible; OutOfRange for a bucket the snapshot lacks.
/// `snapshot_sequence` is the snapshot's sequence.
StatusOr<QueryAnswer> ReferenceAnswer(const ReleaseSnapshot& snapshot,
                                      const DisclosureAnalyzer& analyzer,
                                      const Query& query);

/// One served query and the answer it got.
struct ServedAnswer {
  Query query;
  QueryAnswer answer;
};

/// Checks that every served answer `==` its ReferenceAnswer over the
/// snapshot it names in `registry`, with one analyzer per (tenant,
/// sequence). Returns Internal, naming the tenant and sequence, at the
/// first answer whose snapshot `registry` lacks or whose reference
/// differs.
Status VerifyServedAnswers(const std::vector<ServedAnswer>& served,
                           const SnapshotRegistry& registry);

}  // namespace cksafe

#endif  // CKSAFE_SERVE_REFERENCE_ANSWER_H_
