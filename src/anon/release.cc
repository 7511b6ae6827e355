#include "cksafe/anon/release.h"

#include "cksafe/util/csv.h"
#include "cksafe/util/string_util.h"
#include "cksafe/util/text_table.h"

namespace cksafe {

Status GeneralizedRelease::WriteCsv(const std::string& path) const {
  std::vector<std::vector<std::string>> all;
  all.reserve(rows.size() + 1);
  all.push_back(header);
  all.insert(all.end(), rows.begin(), rows.end());
  return WriteCsvFile(path, all);
}

std::string GeneralizedRelease::Preview(size_t max_rows) const {
  TextTable out;
  out.SetHeader(header);
  for (size_t i = 0; i < rows.size() && i < max_rows; ++i) {
    out.AddRow(rows[i]);
  }
  if (rows.size() > max_rows) {
    out.AddRow({StrFormat("... (%zu more rows)", rows.size() - max_rows)});
  }
  return out.Render();
}

StatusOr<GeneralizedRelease> BuildGeneralizedRelease(
    const Table& table, const std::vector<QuasiIdentifier>& qis,
    const LatticeNode& node, size_t sensitive_column, uint64_t seed) {
  CKSAFE_ASSIGN_OR_RETURN(
      Bucketization bucketization,
      BucketizeAtNode(table, qis, node, sensitive_column));

  Rng rng(seed);
  const std::vector<int32_t> published =
      bucketization.SamplePublishedAssignment(&rng);
  const AttributeDef& sensitive = table.schema().attribute(sensitive_column);

  GeneralizedRelease release;
  for (size_t i = 0; i < qis.size(); ++i) {
    release.header.push_back(qis[i].hierarchy->attribute().name());
  }
  release.header.push_back(sensitive.name());

  for (const Bucket& bucket : bucketization.buckets()) {
    for (PersonId person : bucket.members) {
      std::vector<std::string> row;
      row.reserve(qis.size() + 1);
      for (size_t i = 0; i < qis.size(); ++i) {
        const int64_t group = qis[i].hierarchy->GroupOf(
            table.at(person, qis[i].column), static_cast<size_t>(node[i]));
        row.push_back(qis[i].hierarchy->GroupLabel(
            group, static_cast<size_t>(node[i])));
      }
      row.push_back(sensitive.LabelOf(published[person]));
      release.rows.push_back(std::move(row));
    }
  }
  return release;
}

Status AnatomyRelease::WriteCsv(const std::string& qit_path,
                                const std::string& st_path) const {
  std::vector<std::vector<std::string>> qit;
  qit.reserve(qit_rows.size() + 1);
  qit.push_back(qit_header);
  qit.insert(qit.end(), qit_rows.begin(), qit_rows.end());
  CKSAFE_RETURN_IF_ERROR(WriteCsvFile(qit_path, qit));

  std::vector<std::vector<std::string>> st;
  st.reserve(st_rows.size() + 1);
  st.push_back(st_header);
  st.insert(st.end(), st_rows.begin(), st_rows.end());
  return WriteCsvFile(st_path, st);
}

StatusOr<AnatomyRelease> BuildAnatomyRelease(
    const Table& table, const std::vector<QuasiIdentifier>& qis,
    const Bucketization& bucketization, size_t sensitive_column) {
  if (sensitive_column >= table.num_columns()) {
    return Status::OutOfRange("sensitive column out of range");
  }
  const AttributeDef& sensitive = table.schema().attribute(sensitive_column);
  if (bucketization.sensitive_domain_size() != sensitive.domain_size()) {
    return Status::InvalidArgument(
        "bucketization's sensitive domain does not match the table");
  }

  AnatomyRelease release;
  release.qit_header.push_back("record");
  for (const QuasiIdentifier& qi : qis) {
    if (qi.column >= table.num_columns()) {
      return Status::OutOfRange("quasi-identifier column out of range");
    }
    release.qit_header.push_back(qi.hierarchy->attribute().name());
  }
  release.qit_header.push_back("bucket");

  // Pseudonymous record numbering in bucket order: within-bucket identity
  // is exactly what bucketization hides.
  size_t pseudonym = 0;
  for (size_t b = 0; b < bucketization.num_buckets(); ++b) {
    for (PersonId person : bucketization.bucket(b).members) {
      std::vector<std::string> row;
      row.push_back("r" + std::to_string(pseudonym++));
      for (const QuasiIdentifier& qi : qis) {
        row.push_back(qi.hierarchy->attribute().LabelOf(
            table.at(person, qi.column)));
      }
      row.push_back(std::to_string(b));
      release.qit_rows.push_back(std::move(row));
    }
  }

  release.st_header = {"bucket", sensitive.name(), "count"};
  for (size_t b = 0; b < bucketization.num_buckets(); ++b) {
    const Bucket& bucket = bucketization.bucket(b);
    for (size_t s = 0; s < bucket.histogram.size(); ++s) {
      if (bucket.histogram[s] == 0) continue;
      release.st_rows.push_back({std::to_string(b),
                                 sensitive.LabelOf(static_cast<int32_t>(s)),
                                 std::to_string(bucket.histogram[s])});
    }
  }
  return release;
}

}  // namespace cksafe
