// Embeddable query service: directory + router + writer-side publish
// helpers, wired to the existing publishing pipelines.
//
// A ServingEngine owns one ServingDirectory and one QueryRouter over it.
// Writers push releases produced by Publisher or MultiPolicyPublisher
// (both run PublishPolicies, search/publisher.h) through
// PublishTenantReleases, which freezes them as ReleaseSnapshots and
// atomically swaps them into the tenants' stores; readers call Ask (or
// router()->Submit for async fan-in) from any number of threads. The
// engine is the piece the CLI's `serve` replay driver and serving_bench
// build on.
//
// Writer discipline: snapshots of one tenant must be published by one
// writer at a time (the publisher loop) — sequences are assigned from the
// store's current snapshot and must strictly increase. Readers are
// unrestricted.

#ifndef CKSAFE_SERVE_SERVING_ENGINE_H_
#define CKSAFE_SERVE_SERVING_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "cksafe/persist/durable_store.h"
#include "cksafe/serve/query_router.h"
#include "cksafe/serve/release_snapshot.h"
#include "cksafe/serve/snapshot_store.h"
#include "cksafe/stream/multi_policy_publisher.h"

namespace cksafe {

class ServingEngine {
 public:
  /// In-memory engine (the default): snapshots live only in the RCU slots.
  explicit ServingEngine(QueryRouter::Options router_options = {});

  /// Durable engine: opens (or crash-recovers) the store at
  /// `store_options.dir`, rehydrates every tenant's latest committed
  /// snapshot into the directory, and write-throughs every subsequent
  /// publish — the durable append commits *before* the RCU swap, so a
  /// snapshot a reader can observe is always one a crash cannot lose.
  static StatusOr<std::unique_ptr<ServingEngine>> CreateDurable(
      DurableStoreOptions store_options,
      QueryRouter::Options router_options = {});

  ServingDirectory* directory() { return &directory_; }
  const ServingDirectory* directory() const { return &directory_; }
  QueryRouter* router() { return &router_; }

  /// The durable store, or nullptr for an in-memory engine.
  DurableStore* durable_store() { return durable_store_.get(); }
  const DurableStore* durable_store() const { return durable_store_.get(); }

  /// Adopts an already-frozen snapshot VERBATIM — sequence included —
  /// instead of assigning the next one. This is the shard tier's publish
  /// path: a snapshot that crossed the wire (or is being migrated from
  /// another shard) must keep the per-tenant sequence it was born with,
  /// or answers computed before and after the hop would name different
  /// sequences for the same release. The sequence must still advance the
  /// tenant's slot (FailedPrecondition otherwise); on a durable engine the
  /// append commits before the RCU swap, exactly like
  /// PublishTenantReleases, so adopted sequences must also be contiguous
  /// with the store's history. A null snapshot, sequence 0, or a snapshot
  /// with no buckets (no analyzer can answer over it) is InvalidArgument,
  /// refused before the durable append and without registering the
  /// tenant, so a shard answers such a publish with the error and keeps
  /// serving.
  Status PublishSnapshot(const std::string& tenant,
                         std::shared_ptr<const ReleaseSnapshot> snapshot);

  /// Publishes one round of releases (a MultiPolicyPublisher::PublishAll
  /// result, or one Publisher release), each covering `num_rows` rows;
  /// registers tenants on first use. Every tenant whose release succeeded
  /// gets its previous sequence + 1, and the published snapshots come
  /// back in release order, so callers can keep a registry for audits /
  /// differential checks. Tenants with a non-OK release (e.g. NotFound
  /// for an unsatisfiable policy) keep their previous snapshot and are
  /// skipped. A round naming a tenant twice is InvalidArgument and
  /// publishes nothing. On a durable engine the round is one
  /// DurableStore::AppendPublishGroup, and the RCU swaps run only after
  /// it returns OK: a durable error swaps no tenant.
  StatusOr<std::vector<std::shared_ptr<const ReleaseSnapshot>>>
  PublishTenantReleases(const std::vector<TenantRelease>& releases,
                        size_t num_rows);

  /// Blocking read-side convenience (QueryRouter::Ask).
  StatusOr<QueryAnswer> Ask(Query query) { return router_.Ask(std::move(query)); }

 private:
  ServingDirectory directory_;
  // Write-through target; nullptr on the in-memory path. Declared after
  // directory_ (publishes reference both) and before router_.
  std::unique_ptr<DurableStore> durable_store_;
  // Declared last: destroyed (and its worker joined) before the
  // directory it reads from goes away.
  QueryRouter router_;
};

}  // namespace cksafe

#endif  // CKSAFE_SERVE_SERVING_ENGINE_H_
