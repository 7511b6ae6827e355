#include "cksafe/serve/reference_answer.h"

#include <map>

#include "cksafe/core/logprob.h"
#include "cksafe/util/string_util.h"

namespace cksafe {

StatusOr<QueryAnswer> ReferenceAnswer(const ReleaseSnapshot& snapshot,
                                      const DisclosureAnalyzer& analyzer,
                                      const Query& query) {
  QueryAnswer answer;
  answer.snapshot_sequence = snapshot.sequence;
  switch (query.kind) {
    case QueryKind::kIsCkSafe:
    case QueryKind::kDisclosure: {
      const WorstCaseDisclosure worst =
          analyzer.MaxDisclosureImplications(query.k);
      answer.safe = query.kind == QueryKind::kIsCkSafe &&
                    IsSafeLogRatio(worst.log_r_min, query.c);
      answer.disclosure = worst.disclosure;
      answer.log_r = worst.log_r_min;
      break;
    }
    case QueryKind::kProfileAtK: {
      const DisclosureProfile profile = analyzer.Profile(query.k);
      answer.disclosure = profile.implication[query.k];
      answer.negation = profile.negation[query.k];
      answer.log_r = profile.implication_log_r[query.k];
      break;
    }
    case QueryKind::kPerBucket:
      if (query.bucket >= snapshot.bucketization.num_buckets()) {
        return Status::OutOfRange(StrFormat(
            "bucket %zu out of range (snapshot %llu has %zu buckets)",
            query.bucket, static_cast<unsigned long long>(snapshot.sequence),
            snapshot.bucketization.num_buckets()));
      }
      answer.disclosure = analyzer.PerBucketDisclosure(query.k)[query.bucket];
      break;
  }
  return answer;
}

Status VerifyServedAnswers(const std::vector<ServedAnswer>& served,
                           const SnapshotRegistry& registry) {
  std::map<SnapshotRegistry::key_type, DisclosureAnalyzer> analyzers;
  for (const auto& [query, answer] : served) {
    const SnapshotRegistry::key_type key(query.tenant,
                                         answer.snapshot_sequence);
    const auto snapshot = registry.find(key);
    const char* fault = "names an unpublished snapshot";
    if (snapshot != registry.end()) {
      const DisclosureAnalyzer& analyzer =
          analyzers.try_emplace(key, snapshot->second->bucketization)
              .first->second;
      const StatusOr<QueryAnswer> reference =
          ReferenceAnswer(*snapshot->second, analyzer, query);
      if (reference.ok() && *reference == answer) continue;
      fault = "differs from a fresh analyzer over its snapshot";
    }
    return Status::Internal(StrFormat(
        "served answer %s (tenant %s, snapshot %llu)", fault,
        query.tenant.c_str(),
        static_cast<unsigned long long>(answer.snapshot_sequence)));
  }
  return Status::OK();
}

}  // namespace cksafe
