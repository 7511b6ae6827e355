#include "cksafe/serve/serving_engine.h"

#include <utility>

#include "cksafe/util/string_util.h"

namespace cksafe {

ServingEngine::ServingEngine(QueryRouter::Options router_options)
    : router_(&directory_, router_options) {}

StatusOr<std::unique_ptr<ServingEngine>> ServingEngine::CreateDurable(
    DurableStoreOptions store_options, QueryRouter::Options router_options) {
  CKSAFE_ASSIGN_OR_RETURN(std::unique_ptr<DurableStore> store,
                          DurableStore::Open(std::move(store_options)));
  std::unique_ptr<ServingEngine> engine(new ServingEngine(router_options));
  CKSAFE_RETURN_IF_ERROR(store->RehydrateInto(&engine->directory_));
  engine->durable_store_ = std::move(store);
  return engine;
}

StatusOr<std::shared_ptr<const ReleaseSnapshot>> ServingEngine::PublishRelease(
    const std::string& tenant, const PublishedRelease& release,
    size_t num_rows) {
  SnapshotStore* store = directory_.GetOrAddTenant(tenant);
  const std::shared_ptr<const ReleaseSnapshot> previous = store->Current();
  const uint64_t sequence = (previous == nullptr ? 0 : previous->sequence) + 1;
  std::shared_ptr<const ReleaseSnapshot> snapshot =
      MakeReleaseSnapshot(sequence, num_rows, release);
  // Durable commit first: once the RCU swap makes a snapshot observable,
  // no crash may lose it. A failed append leaves the slot untouched.
  if (durable_store_ != nullptr) {
    CKSAFE_RETURN_IF_ERROR(durable_store_->AppendPublish(tenant, *snapshot));
  }
  store->Publish(snapshot);
  return snapshot;
}

Status ServingEngine::PublishSnapshot(
    const std::string& tenant,
    std::shared_ptr<const ReleaseSnapshot> snapshot) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("cannot adopt a null snapshot");
  }
  if (snapshot->sequence == 0) {
    return Status::InvalidArgument("snapshot sequence 0 is reserved");
  }
  SnapshotStore* store = directory_.GetOrAddTenant(tenant);
  const std::shared_ptr<const ReleaseSnapshot> previous = store->Current();
  const uint64_t current = previous == nullptr ? 0 : previous->sequence;
  if (snapshot->sequence <= current) {
    // Checked here (not left to SnapshotStore's CHECK): a stale publish
    // arriving over the wire is input, not a programming error.
    return Status::FailedPrecondition(StrFormat(
        "adopted sequence %llu does not advance tenant '%s' (at %llu)",
        static_cast<unsigned long long>(snapshot->sequence), tenant.c_str(),
        static_cast<unsigned long long>(current)));
  }
  if (durable_store_ != nullptr) {
    CKSAFE_RETURN_IF_ERROR(durable_store_->AppendPublish(tenant, *snapshot));
  }
  store->Publish(std::move(snapshot));
  return Status::OK();
}

StatusOr<std::vector<std::shared_ptr<const ReleaseSnapshot>>>
ServingEngine::PublishTenantReleases(const std::vector<TenantRelease>& releases,
                                     size_t num_rows) {
  std::vector<std::shared_ptr<const ReleaseSnapshot>> published;
  published.reserve(releases.size());
  for (const TenantRelease& tenant : releases) {
    if (!tenant.release.ok()) continue;
    CKSAFE_ASSIGN_OR_RETURN(
        std::shared_ptr<const ReleaseSnapshot> snapshot,
        PublishRelease(tenant.tenant, *tenant.release, num_rows));
    published.push_back(std::move(snapshot));
  }
  return published;
}

}  // namespace cksafe
