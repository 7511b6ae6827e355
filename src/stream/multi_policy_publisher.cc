#include "cksafe/stream/multi_policy_publisher.h"

#include <utility>

namespace cksafe {

MultiPolicyPublisher::MultiPolicyPublisher(Table initial,
                                           std::vector<QuasiIdentifier> qis,
                                           size_t sensitive_column,
                                           PublisherOptions base)
    : table_(std::move(initial)),
      qis_(std::move(qis)),
      sensitive_column_(sensitive_column),
      base_(base) {
  CKSAFE_CHECK_LT(sensitive_column_, table_.num_columns());
  CKSAFE_CHECK(!qis_.empty());
}

size_t MultiPolicyPublisher::AddTenant(std::string tenant, double c,
                                       size_t k) {
  CKSAFE_CHECK_GT(c, 0.0);
  tenants_.push_back(std::move(tenant));
  policies_.push_back(CkPolicy{c, k});
  return policies_.size() - 1;
}

Status MultiPolicyPublisher::AddBatch(
    const std::vector<std::vector<int32_t>>& rows) {
  for (const std::vector<int32_t>& row : rows) {
    CKSAFE_RETURN_IF_ERROR(table_.ValidateRow(row));
  }
  for (const std::vector<int32_t>& row : rows) {
    CKSAFE_RETURN_IF_ERROR(table_.AppendRow(row));
  }
  return Status::OK();
}

StatusOr<std::vector<TenantRelease>> MultiPolicyPublisher::PublishAll() {
  if (policies_.empty()) {
    return Status::InvalidArgument("no tenants registered; AddTenant first");
  }
  CKSAFE_ASSIGN_OR_RETURN(
      PolicyReleases published,
      PublishPolicies(table_, qis_, sensitive_column_, base_, policies_,
                      &cache_, search_options_.num_threads));
  last_search_stats_ = published.search_stats;
  last_table_traffic_ = published.table_traffic;
  std::vector<TenantRelease> releases;
  releases.reserve(policies_.size());
  for (size_t t = 0; t < policies_.size(); ++t) {
    releases.push_back(TenantRelease{tenants_[t], policies_[t],
                                     std::move(published.releases[t])});
  }
  return releases;
}

}  // namespace cksafe
