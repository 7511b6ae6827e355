// The fleet front end: consistent-hash routing over N forked shard
// processes, with per-shard backpressure, fault isolation, and live
// tenant migration.
//
// A ShardFleet forks `num_shards` ShardServer processes (util/subprocess),
// each onto its end of a socket pair made just before its fork, so each
// shard has one wire-protocol link and no socket file exists. A shard is
// ready once it answers one ping, and it exits when its link closes —
// when the fleet closes its end or dies; no message stops a shard. The
// fleet routes every tenant to one shard by consistent hashing (an FNV-1a
// ring with virtual nodes, so adding shards moves only ~1/N of the
// tenants). Reads multiplex over the link: responses carry the request id
// and may return out of order, so a per-link receiver thread resolves a
// pending-call map. Writes go through the fleet's single logical writer
// (Publish / MigrateTenant), which owns sequence assignment — shards adopt
// sequences verbatim.
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
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
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

  /// Ignored: shards are linked by socket pairs and need no socket files.
  /// Kept so that callers which still set it compile.
  std::string socket_dir;

  /// Non-empty => shard i runs durable over `<durable_root>/shard-<i>`
  /// (directories created by the shard's store).
  std::string durable_root;

  /// Fleet-side backpressure: max queries in flight per shard link.
  size_t max_in_flight_per_shard = 1024;

  /// Sets shard `shard`'s options before its process is forked: the one
  /// way to reach a ShardServerOptions field (queue capacity, pool pages,
  /// the fault seams), for every shard or for one (say, arm
  /// test_crash_after_bytes on shard 2 only).
  std::function<void(size_t shard, ShardServerOptions* options)> tweak_shard;
};

class ShardFleet {
 public:
  /// Forks every shard, then waits for each one's first ping answer: no
  /// receiver thread runs while a shard is forked. A shard that exits, or
  /// does not answer within 30 s, fails Start with Unavailable; the
  /// already-spawned children are then stopped and reaped.
  static StatusOr<std::unique_ptr<ShardFleet>> Start(ShardFleetOptions options);

  /// ShutdownAll, ignoring its error.
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

  /// Marks the link down and SIGKILLs the shard, then tears the link down
  /// as ShutdownAll does: every pending call on it fails with Unavailable,
  /// and the shard is reaped.
  Status KillShard(size_t shard);

  /// Re-forks a down shard onto a new socket pair (and its old durable
  /// directory, when configured) and waits for its first ping answer, as
  /// Start does. The old link is torn down first, as ShutdownAll does: a
  /// link that went down on its own may still have a live shard. Unlike
  /// Start it forks from a threaded parent, by design: the other links'
  /// receivers keep running. So a child can inherit a lock one of them
  /// held at the fork (gcc 12's ASan allocator has no fork handlers); only
  /// spawning by fork+exec, or from a single-threaded spawner, would close
  /// that. Calls must not overlap: a shard forked during another's spawn
  /// could hold that shard's end of its pair, and keep its link open after
  /// it died.
  Status RestartShard(size_t shard);

  StatusOr<WireShardStats> PingShard(size_t shard);

  /// Graceful stop of every shard: marks its link down (new submits fail
  /// fast) and closes the fleet's sending end. The shard reads every
  /// request sent before the close, answers each query it admitted, and
  /// exits; the receiver resolves those answers until the exit closes the
  /// link. Then the shard is reaped. Returns the first reap error.
  Status ShutdownAll();

  size_t num_shards() const { return shard_options_.size(); }
  bool ShardDown(size_t shard) const;

  /// Every snapshot the fleet writer has published or resynced, keyed by
  /// (tenant, sequence) — the differential tests' verification registry.
  SnapshotRegistry PublishedRegistry() const;

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

  /// One shard link: the fleet's end of the shard's socket pair, set
  /// before the fork; replaced wholesale (as a new Link) by RestartShard.
  struct Link {
    UnixSocket socket;
    std::mutex send_mu;
    std::mutex pending_mu;
    std::map<uint64_t, PendingCall> pending;
    std::atomic<size_t> in_flight{0};
    std::atomic<bool> down{true};  ///< until AwaitReady starts the receiver
    std::thread receiver;
    pid_t pid = -1;  ///< -1 once reaped
  };

  explicit ShardFleet(ShardFleetOptions options);

  /// Makes the shard's socket pair, forks the shard onto one end, closes
  /// that end here, and registers the other as the shard's (down) link.
  Status Spawn(size_t shard);
  /// Marks the spawned shard's link up, starts its receiver and waits for
  /// the shard's first ping answer; on failure kills the shard.
  Status AwaitReady(size_t shard);
  /// The one teardown of a link, shared by KillShard, ShutdownAll,
  /// RestartShard and the destructor: marks it down, sends `signal` to
  /// the shard unless it is 0, half-closes the fleet's end, joins the
  /// receiver (which reads answers until the shard's exit closes the
  /// link), fails whatever is still pending, and reaps the shard.
  /// Idempotent; calls for one link must not overlap.
  static Status StopLink(Link* link, int signal);
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

  /// Synchronous call + response-type check. With a `timeout`, a call
  /// still unanswered after it fails with Unavailable.
  StatusOr<WireFrame> CallSync(
      size_t shard, WireType type, const std::vector<uint8_t>& payload,
      uint64_t id, WireType expect,
      std::optional<std::chrono::milliseconds> timeout = std::nullopt);

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
  SnapshotRegistry published_;

  std::atomic<uint64_t> next_id_{1};
};

}  // namespace cksafe

#endif  // CKSAFE_SHARD_FLEET_H_
