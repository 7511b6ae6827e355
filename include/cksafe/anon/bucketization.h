// Bucketization: the paper's sanitization method (Section 2.1).
//
// A bucketization partitions the table's rows into buckets and, for
// publication, permutes sensitive values independently within each bucket
// (Anatomy-style release). For disclosure analysis only the bucket
// memberships and per-bucket sensitive-value histograms matter — under the
// random-worlds assumption every within-bucket assignment is equally likely.

#ifndef CKSAFE_ANON_BUCKETIZATION_H_
#define CKSAFE_ANON_BUCKETIZATION_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cksafe/data/table.h"
#include "cksafe/hierarchy/hierarchy.h"
#include "cksafe/lattice/lattice.h"
#include "cksafe/util/random.h"
#include "cksafe/util/status.h"

namespace cksafe {

/// One bucket: member rows plus the multiset of their sensitive values.
struct Bucket {
  std::vector<PersonId> members;
  /// histogram[s] = n_b(s), indexed by sensitive code; size == sensitive
  /// domain size.
  std::vector<uint32_t> histogram;
  /// Rendering of the bucket's generalized quasi-identifier values.
  std::string qi_label;

  uint32_t size() const { return static_cast<uint32_t>(members.size()); }
};

/// A partition of all rows into buckets, with sensitive histograms.
class Bucketization {
 public:
  explicit Bucketization(size_t sensitive_domain_size)
      : sensitive_domain_size_(sensitive_domain_size) {}

  /// Appends a bucket. Membership must be disjoint from existing buckets;
  /// the histogram must match the sensitive domain size and the member count.
  Status AddBucket(Bucket bucket);

  const std::vector<Bucket>& buckets() const { return buckets_; }
  const Bucket& bucket(size_t i) const;
  size_t num_buckets() const { return buckets_.size(); }
  size_t sensitive_domain_size() const { return sensitive_domain_size_; }
  size_t num_tuples() const { return num_tuples_; }

  /// Index of the bucket containing `person`.
  StatusOr<size_t> BucketOf(PersonId person) const;

  /// Smallest bucket size (the k of k-anonymity).
  uint32_t MinBucketSize() const;

  /// Minimum, over buckets, of the Shannon entropy (nats) of the sensitive
  /// distribution — the paper's Figure 6 x-axis.
  double MinBucketEntropyNats() const;

  /// n_b(s) / n_b maximized over buckets and values: disclosure at k = 0.
  double MaxFrequencyRatio() const;

  /// A published assignment: each bucket's sensitive values randomly
  /// permuted among its members. Returns person-indexed sensitive codes.
  std::vector<int32_t> SamplePublishedAssignment(Rng* rng) const;

  /// True if `assignment` (person -> sensitive code, for all persons in the
  /// bucketization) matches every bucket's histogram.
  bool IsConsistentAssignment(const std::vector<int32_t>& assignment) const;

  std::string ToString() const;

 private:
  size_t sensitive_domain_size_;
  size_t num_tuples_ = 0;
  std::vector<Bucket> buckets_;
  // person -> bucket index; grown lazily (persons are dense row ids).
  std::vector<int32_t> bucket_of_;
};

/// Groups rows by their generalized quasi-identifier values at `node` and
/// collects the sensitive histograms. Buckets are ordered by generalized
/// key: lexicographically by the rows' group ids, compared quasi-identifier
/// by quasi-identifier in `qis` order. Each bucket lists its rows in
/// ascending order, and its qi_label renders the generalized values.
/// Sort-based: a stable sort of the row ids per quasi-identifier (last one
/// first; a counting pass when its level has at most one group per row)
/// and a scan that cuts the buckets. Memory is O(rows), whatever the
/// quasi-identifiers' value ranges.
StatusOr<Bucketization> BucketizeAtNode(const Table& table,
                                        const std::vector<QuasiIdentifier>& qis,
                                        const LatticeNode& node,
                                        size_t sensitive_column);

/// What the disclosure analysis reads of BucketizeAtNode's result, without
/// building it: for each bucket, in the same order, its lowest row and its
/// sensitive histogram, in one flat array. There are no member lists, no
/// labels and no row -> bucket map. The lowest row keys the bucket in the
/// next rollup.
class NodeHistograms {
 public:
  /// The histograms at `node`, grouped from the rows by BucketizeAtNode's
  /// sort, without members or labels.
  static StatusOr<NodeHistograms> AtNode(
      const Table& table, const std::vector<QuasiIdentifier>& qis,
      const LatticeNode& node, size_t sensitive_column);

  /// AtNode's result at `node`, rolled up from `child`, the histograms of
  /// all of `table`'s rows at a node below `node`. By the nesting contract
  /// of AttributeHierarchy each child bucket lies inside one bucket at
  /// `node`, so BucketizeAtNode's sort runs over the child buckets' lowest
  /// rows and each bucket sums its child buckets' histograms; no row is
  /// scanned. InvalidArgument when `child` does not cover the table's rows.
  static StatusOr<NodeHistograms> RollUp(
      const Table& table, const std::vector<QuasiIdentifier>& qis,
      const NodeHistograms& child, const LatticeNode& node,
      size_t sensitive_column);

  size_t num_buckets() const { return data_.size() / stride(); }
  size_t sensitive_domain_size() const { return domain_; }
  size_t num_tuples() const { return num_tuples_; }
  /// The bucket's lowest row: BucketizeAtNode's members[0].
  PersonId first_row(size_t bucket) const { return data_[bucket * stride()]; }
  /// The bucket's histogram, indexed by sensitive code.
  std::span<const uint32_t> histogram(size_t bucket) const {
    return {data_.data() + bucket * stride() + 1, domain_};
  }

 private:
  NodeHistograms(size_t domain, size_t num_buckets)
      : domain_(domain), data_(num_buckets * (domain + 1), 0) {}

  size_t stride() const { return domain_ + 1; }

  size_t domain_;
  size_t num_tuples_ = 0;
  // Per bucket: its lowest row, then its histogram.
  std::vector<uint32_t> data_;
};

/// All rows in a single bucket (the lattice's top / paper's B_⊤).
StatusOr<Bucketization> BucketizeAllInOne(const Table& table,
                                          size_t sensitive_column);

/// One row per bucket (the paper's B_⊥; discloses everything).
StatusOr<Bucketization> BucketizePerRow(const Table& table,
                                        size_t sensitive_column);

/// Builds a bucketization directly from explicit member lists; histograms
/// are derived from the table. Used by tests and the exact engine.
StatusOr<Bucketization> BucketizeExplicit(
    const Table& table, const std::vector<std::vector<PersonId>>& groups,
    size_t sensitive_column);

}  // namespace cksafe

#endif  // CKSAFE_ANON_BUCKETIZATION_H_
