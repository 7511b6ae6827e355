#include "cksafe/serve/serving_engine.h"

#include <set>
#include <string_view>
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

Status ServingEngine::PublishSnapshot(
    const std::string& tenant,
    std::shared_ptr<const ReleaseSnapshot> snapshot) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("cannot adopt a null snapshot");
  }
  if (snapshot->sequence == 0) {
    return Status::InvalidArgument("snapshot sequence 0 is reserved");
  }
  if (snapshot->bucketization.num_buckets() == 0) {
    // No analyzer can run over it: adopting it would abort the process at
    // the tenant's first query.
    return Status::InvalidArgument("cannot adopt a snapshot with no buckets");
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
  // Each tenant's next sequence is read from its slot, so a round naming
  // a tenant twice would hand both entries the same sequence.
  std::set<std::string_view> named;
  for (const TenantRelease& tenant : releases) {
    if (!named.insert(tenant.tenant).second) {
      return Status::InvalidArgument("publish round names tenant '" +
                                     tenant.tenant + "' twice");
    }
  }
  std::vector<SnapshotStore*> slots;
  std::vector<std::shared_ptr<const ReleaseSnapshot>> published;
  std::vector<DurableStore::GroupEntry> entries;
  for (const TenantRelease& tenant : releases) {
    if (!tenant.release.ok()) continue;
    SnapshotStore* slot = directory_.GetOrAddTenant(tenant.tenant);
    const std::shared_ptr<const ReleaseSnapshot> previous = slot->Current();
    published.push_back(MakeReleaseSnapshot(
        (previous == nullptr ? 0 : previous->sequence) + 1, num_rows,
        *tenant.release));
    slots.push_back(slot);
    entries.push_back({tenant.tenant, published.back().get()});
  }
  // One durable group commit before any swap: a failed commit leaves
  // every slot serving its previous snapshot.
  if (durable_store_ != nullptr) {
    CKSAFE_RETURN_IF_ERROR(durable_store_->AppendPublishGroup(entries));
  }
  for (size_t i = 0; i < slots.size(); ++i) slots[i]->Publish(published[i]);
  return published;
}

}  // namespace cksafe
