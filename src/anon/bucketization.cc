#include "cksafe/anon/bucketization.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "cksafe/util/math_util.h"
#include "cksafe/util/string_util.h"

namespace cksafe {

Status Bucketization::AddBucket(Bucket bucket) {
  if (bucket.members.empty()) {
    return Status::InvalidArgument("bucket must be non-empty");
  }
  if (bucket.histogram.size() != sensitive_domain_size_) {
    return Status::InvalidArgument(
        StrFormat("histogram size %zu != sensitive domain %zu",
                  bucket.histogram.size(), sensitive_domain_size_));
  }
  uint64_t total = 0;
  for (uint32_t c : bucket.histogram) total += c;
  if (total != bucket.members.size()) {
    return Status::InvalidArgument(
        StrFormat("histogram total %llu != member count %zu",
                  static_cast<unsigned long long>(total),
                  bucket.members.size()));
  }
  for (PersonId p : bucket.members) {
    if (p < bucket_of_.size() && bucket_of_[p] >= 0) {
      return Status::AlreadyExists(
          StrFormat("person %u already in bucket %d", p, bucket_of_[p]));
    }
  }
  const int32_t index = static_cast<int32_t>(buckets_.size());
  for (PersonId p : bucket.members) {
    if (p >= bucket_of_.size()) bucket_of_.resize(p + 1, -1);
    bucket_of_[p] = index;
  }
  num_tuples_ += bucket.members.size();
  buckets_.push_back(std::move(bucket));
  return Status::OK();
}

const Bucket& Bucketization::bucket(size_t i) const {
  CKSAFE_CHECK_LT(i, buckets_.size());
  return buckets_[i];
}

StatusOr<size_t> Bucketization::BucketOf(PersonId person) const {
  if (person >= bucket_of_.size() || bucket_of_[person] < 0) {
    return Status::NotFound(StrFormat("person %u not in any bucket", person));
  }
  return static_cast<size_t>(bucket_of_[person]);
}

uint32_t Bucketization::MinBucketSize() const {
  uint32_t min_size = buckets_.empty() ? 0 : buckets_[0].size();
  for (const Bucket& b : buckets_) min_size = std::min(min_size, b.size());
  return min_size;
}

double Bucketization::MinBucketEntropyNats() const {
  double min_h = std::numeric_limits<double>::infinity();
  for (const Bucket& b : buckets_) {
    min_h = std::min(min_h, EntropyNats(b.histogram));
  }
  return buckets_.empty() ? 0.0 : min_h;
}

double Bucketization::MaxFrequencyRatio() const {
  double worst = 0.0;
  for (const Bucket& b : buckets_) {
    uint32_t max_count = 0;
    for (uint32_t c : b.histogram) max_count = std::max(max_count, c);
    worst = std::max(worst, static_cast<double>(max_count) / b.size());
  }
  return worst;
}

std::vector<int32_t> Bucketization::SamplePublishedAssignment(Rng* rng) const {
  CKSAFE_CHECK(rng != nullptr);
  size_t max_person = 0;
  for (const Bucket& b : buckets_) {
    for (PersonId p : b.members) max_person = std::max<size_t>(max_person, p);
  }
  std::vector<int32_t> assignment(max_person + 1, -1);
  for (const Bucket& b : buckets_) {
    std::vector<int32_t> values;
    values.reserve(b.members.size());
    for (size_t s = 0; s < b.histogram.size(); ++s) {
      values.insert(values.end(), b.histogram[s], static_cast<int32_t>(s));
    }
    rng->Shuffle(&values);
    for (size_t i = 0; i < b.members.size(); ++i) {
      assignment[b.members[i]] = values[i];
    }
  }
  return assignment;
}

bool Bucketization::IsConsistentAssignment(
    const std::vector<int32_t>& assignment) const {
  for (const Bucket& b : buckets_) {
    std::vector<uint32_t> seen(sensitive_domain_size_, 0);
    for (PersonId p : b.members) {
      if (p >= assignment.size()) return false;
      const int32_t v = assignment[p];
      if (v < 0 || static_cast<size_t>(v) >= sensitive_domain_size_) return false;
      ++seen[static_cast<size_t>(v)];
    }
    if (seen != b.histogram) return false;
  }
  return true;
}

std::string Bucketization::ToString() const {
  std::string out = StrFormat("Bucketization: %zu buckets, %zu tuples\n",
                              buckets_.size(), num_tuples_);
  for (size_t i = 0; i < buckets_.size(); ++i) {
    const Bucket& b = buckets_[i];
    out += StrFormat("  bucket %zu [%s] n=%u histogram={", i,
                     b.qi_label.c_str(), b.size());
    bool first = true;
    for (size_t s = 0; s < b.histogram.size(); ++s) {
      if (b.histogram[s] == 0) continue;
      if (!first) out += ", ";
      first = false;
      out += StrFormat("%zu:%u", s, b.histogram[s]);
    }
    out += "}\n";
  }
  return out;
}

namespace {

Status ValidateSensitiveColumn(const Table& table, size_t sensitive_column) {
  if (sensitive_column >= table.num_columns()) {
    return Status::OutOfRange("sensitive column out of range");
  }
  if (!table.schema().attribute(sensitive_column).is_categorical()) {
    return Status::InvalidArgument("sensitive attribute must be categorical");
  }
  return Status::OK();
}

Status ValidateNode(const Table& table, const std::vector<QuasiIdentifier>& qis,
                    const LatticeNode& node, size_t sensitive_column) {
  CKSAFE_RETURN_IF_ERROR(ValidateSensitiveColumn(table, sensitive_column));
  if (node.size() != qis.size()) {
    return Status::InvalidArgument("node arity != number of quasi-identifiers");
  }
  for (size_t i = 0; i < qis.size(); ++i) {
    if (qis[i].column >= table.num_columns()) {
      return Status::OutOfRange("quasi-identifier column out of range");
    }
    if (node[i] < 0 ||
        static_cast<size_t>(node[i]) >= qis[i].hierarchy->num_levels()) {
      return Status::OutOfRange("generalization level out of range");
    }
  }
  return Status::OK();
}

// Items in generalized-key order, cut into buckets: bucket b holds the
// items order[cuts[b]], ..., order[cuts[b + 1] - 1], and keys[item *
// num_qis + i] is the item's group id for quasi-identifier i.
struct KeyRuns {
  std::vector<int64_t> keys;
  std::vector<uint32_t> order;
  std::vector<uint32_t> cuts;

  size_t num_buckets() const { return cuts.size() - 1; }
};

// The grouping behind BucketizeAtNode and NodeHistograms. Item j is a set
// of rows sharing one key at `node`, read off its representative row
// reps[j]. A stable sort leaves the items in key order, so items with
// equal keys keep their order in `reps`.
KeyRuns SortByKey(const Table& table, const std::vector<QuasiIdentifier>& qis,
                  const LatticeNode& node, const std::vector<PersonId>& reps) {
  const size_t items = reps.size();
  const size_t num_qis = qis.size();
  KeyRuns runs;
  runs.keys.resize(items * num_qis);
  for (size_t i = 0; i < num_qis; ++i) {
    const std::vector<int32_t>& column = table.column(qis[i].column);
    for (size_t item = 0; item < items; ++item) {
      runs.keys[item * num_qis + i] = qis[i].hierarchy->GroupOf(
          column[reps[item]], static_cast<size_t>(node[i]));
    }
  }

  // Stable LSD sort of the items, last quasi-identifier first: they end up
  // in lexicographic key order. A pass counts when the level has at most
  // one group per item and compares otherwise, so no buffer grows with a
  // quasi-identifier's value range.
  std::vector<uint32_t>& order = runs.order;
  order.resize(items);
  std::iota(order.begin(), order.end(), 0u);
  std::vector<uint32_t> sorted(items);
  std::vector<uint32_t> next;
  for (size_t i = num_qis; i-- > 0;) {
    const auto group = [&](uint32_t item) {
      return runs.keys[item * num_qis + i];
    };
    const size_t num_groups =
        qis[i].hierarchy->NumGroups(static_cast<size_t>(node[i]));
    if (num_groups > items) {
      std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        return group(a) < group(b);
      });
      continue;
    }
    next.assign(num_groups + 1, 0);
    for (uint32_t item : order) {
      CKSAFE_CHECK_LT(static_cast<size_t>(group(item)), num_groups);
      ++next[static_cast<size_t>(group(item)) + 1];
    }
    std::partial_sum(next.begin(), next.end(), next.begin());
    for (uint32_t item : order) {
      sorted[next[static_cast<size_t>(group(item))]++] = item;
    }
    order.swap(sorted);
  }

  // One scan of the sorted items cuts a bucket wherever the key changes.
  const auto key_of = [&](uint32_t item) {
    return runs.keys.data() + item * num_qis;
  };
  runs.cuts.push_back(0);
  for (size_t j = 1; j <= items; ++j) {
    if (j == items || !std::equal(key_of(order[j - 1]),
                                  key_of(order[j - 1]) + num_qis,
                                  key_of(order[j]))) {
      runs.cuts.push_back(static_cast<uint32_t>(j));
    }
  }
  return runs;
}

}  // namespace

StatusOr<Bucketization> BucketizeAtNode(const Table& table,
                                        const std::vector<QuasiIdentifier>& qis,
                                        const LatticeNode& node,
                                        size_t sensitive_column) {
  CKSAFE_RETURN_IF_ERROR(ValidateNode(table, qis, node, sensitive_column));
  const size_t domain =
      table.schema().attribute(sensitive_column).domain_size();
  std::vector<PersonId> rows(table.num_rows());
  std::iota(rows.begin(), rows.end(), PersonId{0});
  const KeyRuns runs = SortByKey(table, qis, node, rows);
  const std::vector<int32_t>& sensitive = table.column(sensitive_column);
  Bucketization out(domain);
  for (size_t b = 0; b < runs.num_buckets(); ++b) {
    // The rows started ascending and the sort is stable, so each run lists
    // its bucket's rows in ascending order.
    Bucket bucket;
    bucket.members.assign(runs.order.begin() + runs.cuts[b],
                          runs.order.begin() + runs.cuts[b + 1]);
    bucket.histogram.assign(domain, 0);
    for (PersonId row : bucket.members) {
      ++bucket.histogram[static_cast<size_t>(sensitive[row])];
    }
    const int64_t* key = runs.keys.data() + bucket.members[0] * qis.size();
    std::vector<std::string> labels;
    for (size_t i = 0; i < qis.size(); ++i) {
      labels.push_back(qis[i].hierarchy->GroupLabel(
          key[i], static_cast<size_t>(node[i])));
    }
    bucket.qi_label = Join(labels, ", ");
    CKSAFE_RETURN_IF_ERROR(out.AddBucket(std::move(bucket)));
  }
  return out;
}

StatusOr<NodeHistograms> NodeHistograms::AtNode(
    const Table& table, const std::vector<QuasiIdentifier>& qis,
    const LatticeNode& node, size_t sensitive_column) {
  CKSAFE_RETURN_IF_ERROR(ValidateNode(table, qis, node, sensitive_column));
  std::vector<PersonId> rows(table.num_rows());
  std::iota(rows.begin(), rows.end(), PersonId{0});
  const KeyRuns runs = SortByKey(table, qis, node, rows);
  const std::vector<int32_t>& sensitive = table.column(sensitive_column);
  NodeHistograms out(table.schema().attribute(sensitive_column).domain_size(),
                     runs.num_buckets());
  out.num_tuples_ = table.num_rows();
  for (size_t b = 0; b < runs.num_buckets(); ++b) {
    uint32_t* bucket = out.data_.data() + b * out.stride();
    // The rows started ascending and the sort is stable, so each run's
    // first row is its lowest.
    bucket[0] = runs.order[runs.cuts[b]];
    for (size_t j = runs.cuts[b]; j < runs.cuts[b + 1]; ++j) {
      ++bucket[1 + static_cast<size_t>(sensitive[runs.order[j]])];
    }
  }
  return out;
}

StatusOr<NodeHistograms> NodeHistograms::RollUp(
    const Table& table, const std::vector<QuasiIdentifier>& qis,
    const NodeHistograms& child, const LatticeNode& node,
    size_t sensitive_column) {
  CKSAFE_RETURN_IF_ERROR(ValidateNode(table, qis, node, sensitive_column));
  const size_t domain =
      table.schema().attribute(sensitive_column).domain_size();
  if (child.num_tuples() != table.num_rows() ||
      child.sensitive_domain_size() != domain) {
    return Status::InvalidArgument(
        "child histograms do not cover the table's rows");
  }
  std::vector<PersonId> reps(child.num_buckets());
  for (size_t item = 0; item < reps.size(); ++item) {
    reps[item] = child.first_row(item);
  }
  const KeyRuns runs = SortByKey(table, qis, node, reps);
  NodeHistograms out(domain, runs.num_buckets());
  out.num_tuples_ = child.num_tuples_;
  for (size_t b = 0; b < runs.num_buckets(); ++b) {
    uint32_t* bucket = out.data_.data() + b * out.stride();
    bucket[0] = std::numeric_limits<uint32_t>::max();
    for (size_t j = runs.cuts[b]; j < runs.cuts[b + 1]; ++j) {
      const uint32_t item = runs.order[j];
      bucket[0] = std::min(bucket[0], reps[item]);
      const std::span<const uint32_t> counts = child.histogram(item);
      for (size_t s = 0; s < domain; ++s) bucket[1 + s] += counts[s];
    }
  }
  return out;
}

StatusOr<Bucketization> BucketizeAllInOne(const Table& table,
                                          size_t sensitive_column) {
  std::vector<PersonId> all(table.num_rows());
  for (PersonId p = 0; p < table.num_rows(); ++p) all[p] = p;
  return BucketizeExplicit(table, {all}, sensitive_column);
}

StatusOr<Bucketization> BucketizePerRow(const Table& table,
                                        size_t sensitive_column) {
  std::vector<std::vector<PersonId>> groups(table.num_rows());
  for (PersonId p = 0; p < table.num_rows(); ++p) groups[p] = {p};
  return BucketizeExplicit(table, groups, sensitive_column);
}

StatusOr<Bucketization> BucketizeExplicit(
    const Table& table, const std::vector<std::vector<PersonId>>& groups,
    size_t sensitive_column) {
  CKSAFE_RETURN_IF_ERROR(ValidateSensitiveColumn(table, sensitive_column));
  const size_t domain =
      table.schema().attribute(sensitive_column).domain_size();
  Bucketization out(domain);
  for (const auto& members : groups) {
    Bucket b;
    b.members = members;
    b.histogram.assign(domain, 0);
    for (PersonId p : members) {
      if (p >= table.num_rows()) {
        return Status::OutOfRange(StrFormat("person %u out of range", p));
      }
      ++b.histogram[static_cast<size_t>(table.at(p, sensitive_column))];
    }
    CKSAFE_RETURN_IF_ERROR(out.AddBucket(std::move(b)));
  }
  if (out.num_tuples() != table.num_rows()) {
    return Status::InvalidArgument("groups do not cover every row");
  }
  return out;
}

}  // namespace cksafe
