// Utility metrics for comparing candidate sanitizations (Section 3.4's
// "return the one that maximizes a specified utility function").

#ifndef CKSAFE_SEARCH_UTILITY_H_
#define CKSAFE_SEARCH_UTILITY_H_

#include <string>

#include "cksafe/anon/bucketization.h"
#include "cksafe/data/table.h"
#include "cksafe/hierarchy/hierarchy.h"
#include "cksafe/lattice/lattice.h"

namespace cksafe {

/// Standard utility/penalty measures; lower is better for all of them.
struct UtilityMetrics {
  /// Discernibility metric: sum over buckets of |b|^2 (Bayardo & Agrawal).
  double discernibility = 0.0;
  /// Average equivalence-class (bucket) size.
  double avg_class_size = 0.0;
  /// Sum of generalization levels (lattice height of the node).
  double height = 0.0;
  /// Loss metric: record-averaged fraction of each quasi-identifier's
  /// domain subsumed by the record's generalized value, in [0, 1].
  double loss = 0.0;
};

/// Which scalar a Publisher minimizes when several minimal safe nodes tie.
enum class UtilityObjective {
  kDiscernibility,  ///< UtilityMetrics::discernibility
  kAvgClassSize,    ///< UtilityMetrics::avg_class_size
  kHeight,          ///< UtilityMetrics::height
  kLoss,            ///< UtilityMetrics::loss
};

/// Computes all metrics for `table` generalized to `node`; `bucketization`
/// holds every row of `table`, grouped at `node` (BucketizeAtNode's
/// result). Reads group sizes off the ladders, so the cost is O(rows), not
/// O(value range).
UtilityMetrics ComputeUtility(const Table& table,
                              const std::vector<QuasiIdentifier>& qis,
                              const LatticeNode& node,
                              const Bucketization& bucketization);

/// Every metric but loss (left 0), from what the bucket sizes at `node`
/// fix: `num_tuples`, `num_buckets` and `discernibility`, Σ|b|² summed in
/// bucket order in double. ComputeUtility fills those fields through it,
/// so a node scored from its histograms alone scores as its
/// bucketization does under every objective but kLoss, which reads each
/// row's bucket.
UtilityMetrics UtilityFromBucketSizes(const LatticeNode& node,
                                      size_t num_tuples, size_t num_buckets,
                                      double discernibility);

/// The metric selected by `objective`.
double UtilityScore(const UtilityMetrics& metrics, UtilityObjective objective);

/// Human-readable name of an objective.
std::string UtilityObjectiveName(UtilityObjective objective);

}  // namespace cksafe

#endif  // CKSAFE_SEARCH_UTILITY_H_
