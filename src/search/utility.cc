#include "cksafe/search/utility.h"

namespace cksafe {

UtilityMetrics ComputeUtility(const Table& table,
                              const std::vector<QuasiIdentifier>& qis,
                              const LatticeNode& node,
                              const Bucketization& bucketization) {
  CKSAFE_CHECK_EQ(node.size(), qis.size());
  double discernibility = 0.0;
  for (const Bucket& b : bucketization.buckets()) {
    discernibility += static_cast<double>(b.size()) * b.size();
  }
  UtilityMetrics metrics = UtilityFromBucketSizes(
      node, bucketization.num_tuples(), bucketization.num_buckets(),
      discernibility);

  // Loss metric: for each record and quasi-identifier, the fraction
  // (group size - 1) / (domain size - 1) of the base domain its published
  // group covers. A bucket's rows share their groups, so each bucket's
  // fraction is computed once, but the sum runs over the records in table
  // order, which fixes its rounding.
  if (table.num_rows() > 0 && !qis.empty()) {
    CKSAFE_CHECK_EQ(bucketization.num_tuples(), table.num_rows());
    std::vector<uint32_t> bucket_of(table.num_rows());
    for (size_t b = 0; b < bucketization.num_buckets(); ++b) {
      for (PersonId row : bucketization.bucket(b).members) {
        bucket_of[row] = static_cast<uint32_t>(b);
      }
    }
    std::vector<double> fraction(bucketization.num_buckets());
    double total = 0.0;
    for (size_t q = 0; q < qis.size(); ++q) {
      const AttributeHierarchy& h = *qis[q].hierarchy;
      const size_t level = static_cast<size_t>(node[q]);
      const size_t domain = h.attribute().domain_size();
      if (domain <= 1) continue;
      for (size_t b = 0; b < fraction.size(); ++b) {
        const int32_t code =
            table.at(bucketization.bucket(b).members[0], qis[q].column);
        const size_t size = h.GroupSize(h.GroupOf(code, level), level);
        fraction[b] = static_cast<double>(size - 1) /
                      static_cast<double>(domain - 1);
      }
      for (uint32_t b : bucket_of) total += fraction[b];
    }
    metrics.loss = total / (static_cast<double>(table.num_rows()) *
                            static_cast<double>(qis.size()));
  }
  return metrics;
}

UtilityMetrics UtilityFromBucketSizes(const LatticeNode& node,
                                      size_t num_tuples, size_t num_buckets,
                                      double discernibility) {
  UtilityMetrics metrics;
  metrics.discernibility = discernibility;
  metrics.avg_class_size = num_buckets == 0
                               ? 0.0
                               : static_cast<double>(num_tuples) /
                                     static_cast<double>(num_buckets);
  for (int level : node) metrics.height += level;
  return metrics;
}

double UtilityScore(const UtilityMetrics& metrics, UtilityObjective objective) {
  switch (objective) {
    case UtilityObjective::kDiscernibility:
      return metrics.discernibility;
    case UtilityObjective::kAvgClassSize:
      return metrics.avg_class_size;
    case UtilityObjective::kHeight:
      return metrics.height;
    case UtilityObjective::kLoss:
      return metrics.loss;
  }
  CKSAFE_CHECK(false) << "unknown utility objective";
  return 0.0;
}

std::string UtilityObjectiveName(UtilityObjective objective) {
  switch (objective) {
    case UtilityObjective::kDiscernibility:
      return "discernibility";
    case UtilityObjective::kAvgClassSize:
      return "avg_class_size";
    case UtilityObjective::kHeight:
      return "height";
    case UtilityObjective::kLoss:
      return "loss";
  }
  return "unknown";
}

}  // namespace cksafe
