#include "cksafe/shard/shard_server.h"

#include <chrono>
#include <thread>
#include <utility>

#include "cksafe/util/check.h"
#include "cksafe/util/string_util.h"

namespace cksafe {

/// The link. Serve's thread answers control frames inline and admits
/// queries; each query's completion writes its own response. send_mu
/// serializes every writer on the socket.
struct ShardServer::Link {
  UnixSocket socket;
  std::mutex send_mu;

  Status Send(WireType type, const std::vector<uint8_t>& payload) {
    std::lock_guard<std::mutex> lock(send_mu);
    return SendFrame(&socket, type, payload);
  }

  /// Sends `answer` (or its error) as the response to query `id`.
  Status SendAnswer(uint64_t id, const StatusOr<QueryAnswer>& answer) {
    WireQueryResponse response;
    response.id = id;
    if (answer.ok()) {
      response.answer = *answer;
    } else {
      response.status = answer.status();
    }
    return Send(WireType::kQueryResponse, EncodeQueryResponse(response));
  }
};

ShardServer::ShardServer(ShardServerOptions options, UnixSocket link)
    : options_(std::move(options)), link_(std::make_shared<Link>()) {
  link_->socket = std::move(link);
}

// The router answers every admitted query while the link is still up, so
// a peer that only half-closed its end (the fleet's stop) reads them all.
ShardServer::~ShardServer() {
  if (engine_ != nullptr) engine_->router()->Stop();
  Stop();
}

StatusOr<std::unique_ptr<ShardServer>> ShardServer::Create(
    ShardServerOptions options, UnixSocket link) {
  std::unique_ptr<ShardServer> server(
      new ShardServer(options, std::move(link)));
  QueryRouter::Options router_options;
  router_options.queue_capacity = options.router_queue_capacity;
  if (options.durable_dir.empty()) {
    server->engine_ = std::make_unique<ServingEngine>(router_options);
  } else {
    DurableStoreOptions store_options;
    store_options.dir = options.durable_dir;
    store_options.buffer_pool_pages = options.buffer_pool_pages;
    store_options.test_crash_after_bytes = options.test_crash_after_bytes;
    CKSAFE_ASSIGN_OR_RETURN(
        server->engine_,
        ServingEngine::CreateDurable(store_options, router_options));
    // Rebuild the adopted-publish history the handoff path serves from:
    // the store holds every committed sequence, and decode is
    // deterministic, so the rebuilt history is bit-identical to the
    // pre-crash one.
    const DurableStore* store = server->engine_->durable_store();
    for (const std::string& tenant : store->tenants()) {
      auto& per_tenant = server->history_[tenant];
      for (const uint64_t sequence : store->Sequences(tenant)) {
        CKSAFE_ASSIGN_OR_RETURN(per_tenant[sequence],
                                store->LoadSnapshot(tenant, sequence));
      }
    }
  }
  return server;
}

void ShardServer::Serve() {
  FrameReader frames(&link_->socket);
  for (;;) {
    // An error is the peer's close, a malformed frame, or Stop().
    StatusOr<WireFrame> frame = frames.Next();
    if (!frame.ok()) return;
    // A failed send means the peer is gone; a bad payload hangs up.
    if (!HandleFrame(std::move(frame).value()).ok()) return;
  }
}

void ShardServer::Stop() { link_->socket.Shutdown(); }

WireShardStats ShardServer::Stats() const {
  const RouterStats router = engine_->router()->stats();
  WireShardStats stats;
  stats.submitted = router.submitted;
  stats.rejected = router.rejected;
  stats.answered = router.answered;
  stats.batches = router.batches;
  stats.profile_sweeps = router.profile_sweeps;
  stats.per_bucket_sweeps = router.per_bucket_sweeps;
  stats.snapshot_reloads = router.snapshot_reloads;
  stats.publishes = publishes_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(history_mu_);
  stats.tenants = history_.size();
  return stats;
}

Status ShardServer::HandleFrame(WireFrame frame) {
  switch (frame.type) {
    case WireType::kQueryRequest: {
      StatusOr<WireQueryRequest> request = DecodeQueryRequest(frame.payload);
      if (!request.ok()) return request.status();  // protocol error: hang up
      if (options_.test_stall_queries_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options_.test_stall_queries_ms));
      }
      const uint64_t id = request->id;
      const Status admitted = engine_->router()->Submit(
          std::move(request->query),
          [link = link_, id](StatusOr<QueryAnswer> answer) {
            // Peer gone: shut the socket down so Serve returns too.
            if (!link->SendAnswer(id, answer).ok()) link->socket.Shutdown();
          });
      // Admission failure — including the ResourceExhausted backpressure
      // signal — is answered inline; nothing was queued.
      return admitted.ok() ? Status::OK() : link_->SendAnswer(id, admitted);
    }
    case WireType::kPublishRequest: {
      StatusOr<WirePublishRequest> request =
          DecodePublishRequest(frame.payload);
      if (!request.ok()) return request.status();
      WirePublishResponse response;
      response.id = request->id;
      const std::shared_ptr<const ReleaseSnapshot>& snapshot =
          request->snapshot;
      const SnapshotStore* slot = engine_->directory()->Find(request->tenant);
      const std::shared_ptr<const ReleaseSnapshot> current =
          slot == nullptr ? nullptr : slot->Current();
      if (current != nullptr && snapshot->sequence <= current->sequence) {
        // Idempotent re-adopt: a migrate-back hands this shard sequences
        // it has already served (the serving slot only moves forward, and
        // a durable store holds every sequence up to its latest). Same
        // sequence must mean the same bytes — verify, record into the
        // handoff history if it was dropped, and acknowledge.
        std::lock_guard<std::mutex> lock(history_mu_);
        auto& per_tenant = history_[request->tenant];
        auto it = per_tenant.find(snapshot->sequence);
        if (it != per_tenant.end() &&
            !SnapshotsBitIdentical(*it->second, *snapshot)) {
          response.status = Status::AlreadyExists(StrFormat(
              "tenant '%s' sequence %llu re-published with different bytes",
              request->tenant.c_str(),
              static_cast<unsigned long long>(snapshot->sequence)));
        } else {
          if (it == per_tenant.end()) per_tenant[snapshot->sequence] = snapshot;
          response.sequence = snapshot->sequence;
        }
      } else {
        response.status =
            engine_->PublishSnapshot(request->tenant, snapshot);
        if (response.status.ok()) {
          response.sequence = snapshot->sequence;
          publishes_.fetch_add(1, std::memory_order_relaxed);
          std::lock_guard<std::mutex> lock(history_mu_);
          history_[request->tenant][snapshot->sequence] = snapshot;
        }
      }
      return link_->Send(WireType::kPublishResponse,
                        EncodePublishResponse(response));
    }
    case WireType::kHandoffRequest: {
      StatusOr<WireHandoffRequest> request =
          DecodeHandoffRequest(frame.payload);
      if (!request.ok()) return request.status();
      WireHandoffResponse response;
      response.id = request->id;
      {
        std::lock_guard<std::mutex> lock(history_mu_);
        auto it = history_.find(request->tenant);
        if (it == history_.end()) {
          response.status = Status::NotFound(
              StrFormat("tenant '%s' has no publishes on this shard",
                        request->tenant.c_str()));
        } else {
          // std::map iterates ascending by sequence — the order the
          // migration target must adopt (and a durable target must
          // append) them in.
          response.snapshots.reserve(it->second.size());
          for (const auto& [sequence, snapshot] : it->second) {
            (void)sequence;
            response.snapshots.push_back(snapshot);
          }
        }
      }
      return link_->Send(WireType::kHandoffResponse,
                        EncodeHandoffResponse(response));
    }
    case WireType::kDropRequest: {
      StatusOr<WireDropRequest> request = DecodeDropRequest(frame.payload);
      if (!request.ok()) return request.status();
      WireDropResponse response;
      response.id = request->id;
      {
        // Drop forgets the handoff history; the serving slot itself stays
        // (ServingDirectory has no removal — harmless, since the fleet
        // routes the tenant elsewhere after the migration flip, and on a
        // durable shard the store keeps the history anyway).
        std::lock_guard<std::mutex> lock(history_mu_);
        if (history_.erase(request->tenant) == 0) {
          response.status = Status::NotFound(
              StrFormat("tenant '%s' has no publishes on this shard",
                        request->tenant.c_str()));
        }
      }
      return link_->Send(WireType::kDropResponse,
                        EncodeDropResponse(response));
    }
    case WireType::kPingRequest: {
      StatusOr<WirePingRequest> request = DecodePingRequest(frame.payload);
      if (!request.ok()) return request.status();
      WirePingResponse response;
      response.id = request->id;
      response.stats = Stats();
      return link_->Send(WireType::kPingResponse,
                        EncodePingResponse(response));
    }
    case WireType::kQueryResponse:
    case WireType::kPublishResponse:
    case WireType::kHandoffResponse:
    case WireType::kDropResponse:
    case WireType::kPingResponse:
      return Status::InvalidArgument(
          "response frame sent to a shard (client/server confusion)");
  }
  return Status::InvalidArgument("unhandled frame type");
}

int RunShardProcess(const ShardServerOptions& options, UnixSocket link) {
  StatusOr<std::unique_ptr<ShardServer>> server =
      ShardServer::Create(options, std::move(link));
  if (!server.ok()) return 1;
  (*server)->Serve();
  return 0;
}

}  // namespace cksafe
