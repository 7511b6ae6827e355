// One shard process: a ServingEngine behind a wire-protocol front door.
//
// A ShardServer owns one ServingEngine (in-memory, or durable when a store
// directory is configured) and serves the shard/wire.h protocol on one
// link: its end of the socket pair the fleet made before forking it.
// Serve() reads the link on the calling thread until the peer closes it,
// a frame is malformed or a response cannot be sent, or Stop() — so a
// shard whose fleet dies sees its link close and exits. The peer's close
// is also the only graceful stop: no message stops a shard, and the
// server's teardown first stops its router, which answers every admitted
// query over the link, and only then shuts the link. Queries are
// admitted into the engine's QueryRouter — the shard's bounded admission
// queue — asynchronously: Serve keeps admitting while each query's
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

#include "cksafe/serve/serving_engine.h"
#include "cksafe/shard/wire.h"
#include "cksafe/util/socket.h"
#include "cksafe/util/status.h"

namespace cksafe {

struct ShardServerOptions {
  /// Non-empty => durable engine over this store directory (created or
  /// crash-recovered on startup; the adopted-publish history is rebuilt
  /// from it).
  std::string durable_dir;
  size_t buffer_pool_pages = 64;
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
  /// Builds the engine (recovering a durable store if configured) over
  /// `link`, the shard's end of its socket pair. The shard is not serving
  /// until Serve().
  static StatusOr<std::unique_ptr<ShardServer>> Create(
      ShardServerOptions options, UnixSocket link);

  /// Stops the router — every admitted query is answered over the link,
  /// if it is still up — then shuts the link down.
  ~ShardServer();
  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  /// Reads and answers the link's frames on the calling thread. Returns
  /// when the peer closes the link, a frame is malformed, a response
  /// cannot be sent, or Stop() is called.
  void Serve();

  /// Shuts the link down in both directions, which wakes Serve(). Queries
  /// admitted but not yet answered then cannot send their answers; the
  /// graceful stop is the peer's close. Idempotent, callable from any
  /// thread.
  void Stop();

  /// The wrapped engine (in-process tests).
  ServingEngine* engine() { return engine_.get(); }

 private:
  /// The link's socket and its write lock.
  struct Link;

  ShardServer(ShardServerOptions options, UnixSocket link);

  /// Control frames (publish/handoff/drop/ping) are answered inline on
  /// Serve's thread; queries are answered by their completions.
  Status HandleFrame(WireFrame frame);

  WireShardStats Stats() const;

  const ShardServerOptions options_;
  std::unique_ptr<ServingEngine> engine_;
  /// Every admitted query's completion holds a reference too, so the link
  /// outlives the queries, even while the engine drains at teardown.
  const std::shared_ptr<Link> link_;

  std::atomic<uint64_t> publishes_{0};

  /// tenant -> sequence -> snapshot: every publish this shard has adopted
  /// (rebuilt from the durable store on startup). Guarded by history_mu_.
  mutable std::mutex history_mu_;
  std::map<std::string, std::map<uint64_t, std::shared_ptr<const ReleaseSnapshot>>>
      history_;
};

/// Child-process entry point: Create over `link`, then Serve. Returns 0
/// once the link is done, 1 when Create fails. The fleet forks shards
/// onto this.
int RunShardProcess(const ShardServerOptions& options, UnixSocket link);

}  // namespace cksafe

#endif  // CKSAFE_SHARD_SHARD_SERVER_H_
