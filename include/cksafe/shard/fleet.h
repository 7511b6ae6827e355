// The fleet front end: consistent-hash routing over N forked shard
// processes, with per-shard backpressure, fault isolation, and live
// tenant migration.
//
// A ShardFleet forks `num_shards` ShardServer processes (util/subprocess),
// connects one wire-protocol link to each, and routes every tenant to one
// shard by consistent hashing (an FNV-1a ring with virtual nodes, so
// adding shards moves only ~1/N of the tenants). Reads multiplex over the
// link: responses carry the request id and may return out of order, so a
// per-link receiver thread resolves a pending-call map. Writes go through
// the fleet's single logical writer (Publish / MigrateTenant), which owns
// sequence assignment — shards adopt sequences verbatim.
//
// Backpressure is layered: the fleet refuses Submit with ResourceExhausted
// when a shard's in-flight window is full (before any bytes move), and a
// shard's own admission queue returns the same code end-to-end when its
// router is saturated.
//
// Fault surface: a shard that dies — SIGKILL, crash seam, anything that
// drops the socket — fails every pending call on its link with
// Unavailable and marks the link down; subsequent submits fail fast with
// Unavailable instead of hanging. KillShard/RestartShard expose this as a
// test harness: a durable shard restarted onto the same store directory
// recovers and must answer bit-identically to its pre-crash snapshots
// (ResyncTenant re-synchronizes the writer's sequence counter with what
// actually committed when a kill landed mid-publish).
//
// Live migration (MigrateTenant) is publish-to-new/drain-old: ship the
// tenant's full ascending-sequence history to the target (handoff →
// adopt), flip the routing override, then drop the source's handoff
// history. Queries keep landing on the source until the flip and on the
// target after it; both serve bit-identical snapshots at every sequence,
// so the migration is invisible in the answers — the shard_migration_test
// differential.

#ifndef CKSAFE_SHARD_FLEET_H_
#define CKSAFE_SHARD_FLEET_H_

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cksafe/search/publisher.h"
#include "cksafe/serve/query_router.h"
#include "cksafe/serve/release_snapshot.h"
#include "cksafe/shard/shard_server.h"
#include "cksafe/shard/wire.h"
#include "cksafe/util/socket.h"
#include "cksafe/util/status.h"

namespace cksafe {

struct ShardFleetOptions {
  /// Number of shard processes to fork (>= 1).
  size_t num_shards = 2;

  /// Directory for the shards' socket files (`<dir>/shard-<i>.sock`).
  /// Must exist; keep it short — sockaddr_un caps the path length.
  std::string socket_dir;

  /// Non-empty => shard i runs durable over `<durable_root>/shard-<i>`
  /// (directories created by the shard's store).
  std::string durable_root;

  /// Per-shard admission queue capacity (ShardServer pass-through).
  size_t router_queue_capacity = 4096;

  /// Fleet-side backpressure: max queries in flight per shard link.
  size_t max_in_flight_per_shard = 1024;

  /// Test seam: tweak one shard's options before its process is forked
  /// (e.g. arm test_crash_after_bytes on shard 2 only).
  std::function<void(size_t shard, ShardServerOptions* options)> tweak_shard;

  /// ShardServer pass-throughs applied to every shard.
  size_t buffer_pool_pages = 64;
  int64_t test_stall_queries_ms = 0;
};

class ShardFleet {
 public:
  /// Forks every shard, then connects to each: no receiver thread runs
  /// while a shard is forked. On failure the already-spawned children are
  /// killed and reaped.
  static StatusOr<std::unique_ptr<ShardFleet>> Start(ShardFleetOptions options);

  /// Best-effort ShutdownAll + SIGKILL of anything still alive.
  ~ShardFleet();
  ShardFleet(const ShardFleet&) = delete;
  ShardFleet& operator=(const ShardFleet&) = delete;

  // -- read path ----------------------------------------------------------

  /// Routes the query to its tenant's shard. Fails fast with Unavailable
  /// when that shard is down and ResourceExhausted when its in-flight
  /// window is full; otherwise the future resolves when the response
  /// frame arrives (or with Unavailable if the shard dies first).
  StatusOr<std::future<StatusOr<QueryAnswer>>> Submit(const Query& query);

  /// Blocking convenience.
  StatusOr<QueryAnswer> Ask(const Query& query);

  // -- write path (single logical writer) ---------------------------------

  /// Freezes `release` as the tenant's next snapshot (fleet-assigned
  /// sequence) and publishes it to the tenant's shard. The returned
  /// snapshot is also recorded in the verification registry.
  StatusOr<std::shared_ptr<const ReleaseSnapshot>> Publish(
      const std::string& tenant, const PublishedRelease& release,
      size_t num_rows);

  /// Adopt-verbatim variant (tests): the caller owns the sequence.
  Status PublishSnapshot(const std::string& tenant,
                         std::shared_ptr<const ReleaseSnapshot> snapshot);

  /// Re-synchronizes the writer's sequence counter and registry with the
  /// tenant's shard (handoff of its full history) — the recovery step
  /// after a kill landed mid-publish and left the commit in doubt.
  Status ResyncTenant(const std::string& tenant);

  /// Live migration; serialized against Publish. No-op when the tenant
  /// already lives on `target_shard`.
  Status MigrateTenant(const std::string& tenant, size_t target_shard);

  // -- fleet control / fault harness --------------------------------------

  /// The shard currently serving `tenant` (override map, then the ring).
  size_t ShardOf(const std::string& tenant) const;

  /// SIGKILL + reap; fails every pending call on the link (Unavailable)
  /// and marks it down.
  Status KillShard(size_t shard);

  /// Re-forks a killed/stopped shard on its old socket path (and durable
  /// directory, when configured) and reconnects. Unlike Start it forks
  /// from a threaded parent, by design: the other links' receivers keep
  /// running. So a child can inherit a lock one of them held at the fork
  /// (gcc 12's ASan allocator has no fork handlers); only spawning by
  /// fork+exec, or from a single-threaded spawner, would close that.
  Status RestartShard(size_t shard);

  StatusOr<WireShardStats> PingShard(size_t shard);

  /// Graceful stop: shutdown frame to every live shard, then reap.
  Status ShutdownAll();

  size_t num_shards() const { return shard_options_.size(); }
  bool ShardDown(size_t shard) const;

  /// Every snapshot the fleet writer has published or resynced, keyed by
  /// (tenant, sequence) — the differential tests' verification registry.
  std::map<std::pair<std::string, uint64_t>,
           std::shared_ptr<const ReleaseSnapshot>>
  PublishedRegistry() const;

 private:
  struct PendingCall {
    /// Receives the response frame — or the link-failure Status — exactly
    /// once, from the receiver thread (or FailPending). A resolver, not a
    /// raw promise, so Submit can hand out a plain promise-backed future
    /// that decodes eagerly on resolution: callers may wait_for/poll it
    /// (a deferred-async adapter would report future_status::deferred
    /// forever).
    std::function<void(StatusOr<WireFrame>)> resolve;
    bool counted = false;  ///< held an in-flight window slot
  };

  /// One shard link. Immutable socket identity once connected; replaced
  /// wholesale (as a new Link) by RestartShard.
  struct Link {
    UnixSocket socket;
    std::mutex send_mu;
    std::mutex pending_mu;
    std::map<uint64_t, PendingCall> pending;
    std::atomic<size_t> in_flight{0};
    std::atomic<bool> down{true};  ///< until Connect succeeds
    std::thread receiver;
    pid_t pid = -1;
    bool reaped = false;
  };

  explicit ShardFleet(ShardFleetOptions options);

  /// Forks the shard's process and registers its (down) link.
  Status Spawn(size_t shard);
  /// Connects the spawned shard's link, marks it up and starts its
  /// receiver.
  Status Connect(size_t shard);
  std::shared_ptr<Link> GetLink(size_t shard) const;
  void ReceiverLoop(std::shared_ptr<Link> link);
  static void FailPending(Link* link, const Status& error);

  /// Registers `resolve` as the pending call for `id` and sends the
  /// frame. `counted` ties the call to the in-flight window. On error the
  /// registration is gone and `resolve` will never run (any claimed
  /// window slot has been released); on OK it runs exactly once.
  Status CallRegistered(const std::shared_ptr<Link>& link, WireType type,
                        const std::vector<uint8_t>& payload, uint64_t id,
                        bool counted,
                        std::function<void(StatusOr<WireFrame>)> resolve);

  /// Synchronous call + response-type check.
  StatusOr<WireFrame> CallSync(size_t shard, WireType type,
                               const std::vector<uint8_t>& payload,
                               uint64_t id, WireType expect);

  /// One publish RPC: `shard` adopts `snapshot` for `tenant`; returns the
  /// shard's verdict. Callers hold publish_mu_.
  Status PublishTo(size_t shard, const std::string& tenant,
                   std::shared_ptr<const ReleaseSnapshot> snapshot);

  const ShardFleetOptions options_;
  std::vector<ShardServerOptions> shard_options_;

  mutable std::mutex links_mu_;
  std::vector<std::shared_ptr<Link>> links_;

  mutable std::mutex routing_mu_;
  std::vector<std::pair<uint64_t, size_t>> ring_;  ///< (hash, shard) sorted
  std::map<std::string, size_t> overrides_;        ///< migrated tenants

  mutable std::mutex publish_mu_;
  std::map<std::string, uint64_t> next_sequence_;
  std::map<std::pair<std::string, uint64_t>,
           std::shared_ptr<const ReleaseSnapshot>>
      published_;

  std::atomic<uint64_t> next_id_{1};
};

}  // namespace cksafe

#endif  // CKSAFE_SHARD_FLEET_H_
