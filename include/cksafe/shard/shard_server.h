// One shard process: a ServingEngine behind a wire-protocol front door.
//
// A ShardServer owns one ServingEngine (in-memory, or durable when a store
// directory is configured) and serves the shard/wire.h protocol on a
// UNIX-domain socket, with one reader thread per connection. Queries are
// admitted into the engine's QueryRouter — the shard's bounded admission
// queue — asynchronously: the reader keeps admitting while each query's
// completion callback, run by the router as it answers, writes the
// response itself, so one slow batch never stops the shard from accepting
// (or backpressuring) the next requests. Responses therefore leave in
// answer order, which the protocol allows (ids correlate them). A
// completion's write blocks the router while the peer's receive buffer is
// full; the fleet's per-link receiver thread keeps reading. Backpressure
// is end-to-end: when the router's queue is full, the ResourceExhausted
// the in-process caller would get is exactly what crosses the wire.
//
// Publishes ADOPT wire snapshots verbatim (ServingEngine::PublishSnapshot)
// — sequences are assigned by the fleet's writer, not re-stamped per
// shard, which is what keeps them stable across live migration. The shard
// also keeps every adopted snapshot in an in-memory per-tenant history so
// a handoff can ship the tenant's full ascending-sequence past to the
// migration target (a durable target must replay contiguously from 1);
// a durable shard rebuilds this history from its store on startup, so
// migration survives a crash-restart cycle.
//
// Fault seams (fault-injection tests): `test_crash_after_bytes` passes
// through to the durable store's SIGKILL-mid-append seam, and
// `test_stall_queries_ms` holds each query that long before admission —
// wide-open windows for killing a shard mid-publish / mid-query.

#ifndef CKSAFE_SHARD_SHARD_SERVER_H_
#define CKSAFE_SHARD_SHARD_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cksafe/serve/serving_engine.h"
#include "cksafe/shard/wire.h"
#include "cksafe/util/socket.h"
#include "cksafe/util/status.h"

namespace cksafe {

struct ShardServerOptions {
  /// Filesystem path the shard listens on.
  std::string socket_path;

  /// Non-empty => durable engine over this store directory (created or
  /// crash-recovered on startup; the adopted-publish history is rebuilt
  /// from it).
  std::string durable_dir;
  size_t buffer_pool_pages = 64;
  size_t profile_max_k = 0;
  /// Durable crash seam, passed through to DurableStoreOptions.
  int64_t test_crash_after_bytes = -1;

  /// The shard's admission-queue capacity (QueryRouter backpressure).
  size_t router_queue_capacity = 4096;

  /// Test seam: stall each query this long before admission, so a test
  /// can reliably land a SIGKILL while queries are in flight.
  int64_t test_stall_queries_ms = 0;
};

class ShardServer {
 public:
  /// Builds the engine (recovering a durable store if configured) and
  /// binds the listener. The shard is not serving until Serve().
  static StatusOr<std::unique_ptr<ShardServer>> Create(
      ShardServerOptions options);

  ~ShardServer();
  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  /// Accept-and-serve loop; blocks until Stop() (from another thread or a
  /// shutdown frame) and every connection handler has drained.
  Status Serve();

  /// Wakes Serve(): closes the listener and every live connection.
  /// Idempotent, callable from any thread (including handlers).
  void Stop();

  /// The wrapped engine (in-process tests).
  ServingEngine* engine() { return engine_.get(); }

 private:
  /// One accepted connection: the socket, its write lock and its reader
  /// thread.
  struct Connection;

  explicit ShardServer(ShardServerOptions options);

  void HandleConnection(const std::shared_ptr<Connection>& conn);
  /// Joins every connection's reader without holding conns_mu_ (a reader
  /// handling a shutdown frame blocks on it inside Stop()).
  void JoinConnections();
  /// Control frames (publish/handoff/drop/ping/shutdown) answered inline
  /// on the reader thread; queries are answered by their completions.
  Status HandleFrame(const std::shared_ptr<Connection>& conn,
                     WireFrame frame);

  WireShardStats Stats() const;

  const ShardServerOptions options_;
  std::unique_ptr<ServingEngine> engine_;
  UnixListener listener_;

  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> publishes_{0};

  /// tenant -> sequence -> snapshot: every publish this shard has adopted
  /// (rebuilt from the durable store on startup). Guarded by history_mu_.
  mutable std::mutex history_mu_;
  std::map<std::string, std::map<uint64_t, std::shared_ptr<const ReleaseSnapshot>>>
      history_;

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
};

/// Child-process entry point: Create + Serve, mapping any error to a
/// non-zero exit code. The fleet forks shards onto this.
int RunShardProcess(const ShardServerOptions& options);

}  // namespace cksafe

#endif  // CKSAFE_SHARD_SHARD_SERVER_H_
