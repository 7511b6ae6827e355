#include "cksafe/shard/fleet.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <thread>

#include <signal.h>
#include <sys/stat.h>

#include "cksafe/util/check.h"
#include "cksafe/util/page_io.h"
#include "cksafe/util/string_util.h"
#include "cksafe/util/subprocess.h"

namespace cksafe {
namespace {

// Virtual nodes per shard on the hash ring.
constexpr size_t kVirtualNodes = 16;

// How long Start / RestartShard waits for a forked shard's first ping
// answer (a durable shard rehydrates its store before it serves).
constexpr std::chrono::milliseconds kStartTimeout{30000};

uint64_t HashBytes(const std::string& s) {
  // Raw FNV-1a clusters badly on short keys that differ in one trailing
  // character: each shard's virtual nodes would sort into one contiguous
  // arc and a single shard would own almost the whole ring. Finish with a
  // SplitMix64-style avalanche so ring positions are uniform.
  uint64_t h = Fnv1a64(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

/// Response frame (or link failure) -> the caller-facing query answer.
StatusOr<QueryAnswer> DecodeAnswerFrame(StatusOr<WireFrame> frame) {
  CKSAFE_ASSIGN_OR_RETURN(WireFrame resolved, std::move(frame));
  if (resolved.type != WireType::kQueryResponse) {
    return Status::Internal("non-query response to a query request");
  }
  CKSAFE_ASSIGN_OR_RETURN(WireQueryResponse response,
                          DecodeQueryResponse(resolved.payload));
  CKSAFE_RETURN_IF_ERROR(response.status);
  return response.answer;
}

}  // namespace

ShardFleet::ShardFleet(ShardFleetOptions options)
    : options_(std::move(options)) {}

StatusOr<std::unique_ptr<ShardFleet>> ShardFleet::Start(
    ShardFleetOptions options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("a fleet needs at least one shard");
  }
  if (!options.durable_root.empty()) {
    // Each shard's store mkdirs its own leaf; the shared root is ours.
    if (::mkdir(options.durable_root.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IOError(StrFormat("mkdir %s: %s",
                                       options.durable_root.c_str(),
                                       std::strerror(errno)));
    }
  }
  std::unique_ptr<ShardFleet> fleet(new ShardFleet(options));
  for (size_t i = 0; i < options.num_shards; ++i) {
    ShardServerOptions shard;
    if (!options.durable_root.empty()) {
      shard.durable_dir =
          StrFormat("%s/shard-%zu", options.durable_root.c_str(), i);
    }
    if (options.tweak_shard) options.tweak_shard(i, &shard);
    fleet->shard_options_.push_back(std::move(shard));
  }
  // The ring is fixed for the fleet's lifetime: virtual nodes smooth the
  // per-shard tenant share, migration overrides handle the rest.
  for (size_t i = 0; i < options.num_shards; ++i) {
    for (size_t v = 0; v < kVirtualNodes; ++v) {
      fleet->ring_.emplace_back(
          HashBytes(StrFormat("shard-%zu#%zu", i, v)), i);
    }
  }
  std::sort(fleet->ring_.begin(), fleet->ring_.end());
  // Fork every shard before any receiver thread runs: a child forked while
  // another thread holds an allocator lock (ASan's, say) inherits the lock
  // held and hangs. On failure ~ShardFleet stops and reaps everything
  // already forked.
  for (size_t i = 0; i < options.num_shards; ++i) {
    CKSAFE_RETURN_IF_ERROR(fleet->Spawn(i));
  }
  for (size_t i = 0; i < options.num_shards; ++i) {
    CKSAFE_RETURN_IF_ERROR(fleet->AwaitReady(i));
  }
  return fleet;
}

ShardFleet::~ShardFleet() {
  Status ignored = ShutdownAll();
  (void)ignored;
}

Status ShardFleet::Spawn(size_t shard) {
  const ShardServerOptions& shard_options = shard_options_[shard];
  CKSAFE_ASSIGN_OR_RETURN(auto ends, UnixSocket::Pair());
  auto link = std::make_shared<Link>();
  link->socket = std::move(ends.first);
  UnixSocket& shard_end = ends.second;
  const auto child_main = [&]() {
    link->socket.Close();  // the shard keeps only its own end
    return RunShardProcess(shard_options, std::move(shard_end));
  };
  CKSAFE_ASSIGN_OR_RETURN(link->pid, SpawnProcess(child_main));
  // Close the shard's end before anything else is forked: a later shard
  // holding a copy would keep this link open after its shard died.
  shard_end.Close();
  std::lock_guard<std::mutex> lock(links_mu_);
  if (links_.size() <= shard) links_.resize(shard + 1);
  links_[shard] = std::move(link);
  return Status::OK();
}

Status ShardFleet::AwaitReady(size_t shard) {
  const std::shared_ptr<Link> link = GetLink(shard);
  // Up before the receiver starts, which marks the link down again if the
  // shard goes away.
  link->down.store(false, std::memory_order_release);
  link->receiver = std::thread([this, link] { ReceiverLoop(link); });
  // A shard that exits before it serves closes its end, and the receiver
  // fails the ping; one that hangs runs into the timeout.
  WirePingRequest request;
  request.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  const StatusOr<WireFrame> pong =
      CallSync(shard, WireType::kPingRequest, EncodePingRequest(request),
               request.id, WireType::kPingResponse, kStartTimeout);
  if (pong.ok()) return Status::OK();
  Status killed = KillShard(shard);
  (void)killed;
  return Status::Unavailable(StrFormat("shard %zu did not start: %s", shard,
                                       pong.status().message().c_str()));
}

std::shared_ptr<ShardFleet::Link> ShardFleet::GetLink(size_t shard) const {
  std::lock_guard<std::mutex> lock(links_mu_);
  CKSAFE_CHECK_LT(shard, links_.size());
  return links_[shard];
}

void ShardFleet::FailPending(Link* link, const Status& error) {
  std::map<uint64_t, PendingCall> orphaned;
  {
    std::lock_guard<std::mutex> lock(link->pending_mu);
    orphaned.swap(link->pending);
  }
  for (auto& [id, call] : orphaned) {
    (void)id;
    if (call.counted) link->in_flight.fetch_sub(1, std::memory_order_relaxed);
    call.resolve(error);
  }
}

void ShardFleet::ReceiverLoop(std::shared_ptr<Link> link) {
  FrameReader frames(&link->socket);
  for (;;) {
    StatusOr<WireFrame> frame = frames.Next();
    if (!frame.ok()) {
      // The shard is gone (killed, crashed, or exited after the fleet
      // closed its end) or the stream is corrupt: either way nothing more
      // will be answered on this link. Every caller still waiting gets
      // Unavailable NOW — the "SIGKILLed shard never wedges the router"
      // contract.
      link->down.store(true, std::memory_order_release);
      FailPending(link.get(),
                  Status::Unavailable(StrFormat(
                      "shard link lost: %s", frame.status().message().c_str())));
      return;
    }
    // Every response payload leads with the correlation id.
    ByteReader reader(frame->payload);
    StatusOr<uint64_t> id = reader.U64();
    if (!id.ok()) continue;  // unparseable frame: drop, keep the link
    PendingCall call;
    bool found = false;
    {
      std::lock_guard<std::mutex> lock(link->pending_mu);
      auto it = link->pending.find(*id);
      if (it != link->pending.end()) {
        call = std::move(it->second);
        link->pending.erase(it);
        found = true;
      }
    }
    if (!found) continue;  // late response for a call already failed
    if (call.counted) link->in_flight.fetch_sub(1, std::memory_order_relaxed);
    call.resolve(std::move(frame).value());
  }
}

Status ShardFleet::CallRegistered(
    const std::shared_ptr<Link>& link, WireType type,
    const std::vector<uint8_t>& payload, uint64_t id, bool counted,
    std::function<void(StatusOr<WireFrame>)> resolve) {
  if (link->down.load(std::memory_order_acquire)) {
    if (counted) link->in_flight.fetch_sub(1, std::memory_order_relaxed);
    return Status::Unavailable("shard is down");
  }
  {
    std::lock_guard<std::mutex> lock(link->pending_mu);
    PendingCall& call = link->pending[id];
    call.counted = counted;
    call.resolve = std::move(resolve);
  }
  Status sent = Status::OK();
  {
    std::lock_guard<std::mutex> lock(link->send_mu);
    sent = SendFrame(&link->socket, type, payload);
  }
  if (!sent.ok()) {
    bool erased = false;
    {
      std::lock_guard<std::mutex> lock(link->pending_mu);
      erased = link->pending.erase(id) > 0;
    }
    // The link is unusable: close it as StopLink does, so the shard
    // answers what it admitted and exits, which ends the receiver.
    link->down.store(true, std::memory_order_release);
    link->socket.ShutdownWrite();
    if (erased) {
      if (counted) link->in_flight.fetch_sub(1, std::memory_order_relaxed);
      return Status::Unavailable(
          StrFormat("shard send failed: %s", sent.message().c_str()));
    }
    // The receiver failed the entry first; the resolver already ran with
    // its error — from the caller's side the call is registered and done.
  }
  return Status::OK();
}

StatusOr<WireFrame> ShardFleet::CallSync(
    size_t shard, WireType type, const std::vector<uint8_t>& payload,
    uint64_t id, WireType expect,
    std::optional<std::chrono::milliseconds> timeout) {
  auto state = std::make_shared<std::promise<StatusOr<WireFrame>>>();
  std::future<StatusOr<WireFrame>> future = state->get_future();
  CKSAFE_RETURN_IF_ERROR(CallRegistered(
      GetLink(shard), type, payload, id, /*counted=*/false,
      [state](StatusOr<WireFrame> frame) { state->set_value(std::move(frame)); }));
  if (timeout.has_value() &&
      future.wait_for(*timeout) != std::future_status::ready) {
    return Status::Unavailable(
        StrFormat("shard %zu did not answer within %lld ms", shard,
                  static_cast<long long>(timeout->count())));
  }
  CKSAFE_ASSIGN_OR_RETURN(WireFrame frame, future.get());
  if (frame.type != expect) {
    return Status::Internal(
        StrFormat("shard %zu answered frame type %u where %u was expected",
                  shard, static_cast<unsigned>(frame.type),
                  static_cast<unsigned>(expect)));
  }
  return frame;
}

size_t ShardFleet::ShardOf(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(routing_mu_);
  if (auto it = overrides_.find(tenant); it != overrides_.end()) {
    return it->second;
  }
  const uint64_t hash = HashBytes(tenant);
  auto it = std::upper_bound(
      ring_.begin(), ring_.end(), hash,
      [](uint64_t h, const std::pair<uint64_t, size_t>& node) {
        return h < node.first;
      });
  if (it == ring_.end()) it = ring_.begin();  // wrap around the ring
  return it->second;
}

bool ShardFleet::ShardDown(size_t shard) const {
  return GetLink(shard)->down.load(std::memory_order_acquire);
}

StatusOr<std::future<StatusOr<QueryAnswer>>> ShardFleet::Submit(
    const Query& query) {
  const size_t shard = ShardOf(query.tenant);
  const std::shared_ptr<Link> link = GetLink(shard);
  if (link->down.load(std::memory_order_acquire)) {
    return Status::Unavailable(
        StrFormat("shard %zu (tenant '%s') is down", shard,
                  query.tenant.c_str()));
  }
  // Fleet-side backpressure BEFORE any bytes move: the in-flight window
  // is claimed up front and released when the response (or link failure)
  // resolves the call.
  const size_t in_flight =
      link->in_flight.fetch_add(1, std::memory_order_relaxed);
  if (in_flight >= options_.max_in_flight_per_shard) {
    link->in_flight.fetch_sub(1, std::memory_order_relaxed);
    return Status::ResourceExhausted(
        StrFormat("shard %zu in-flight window full (%zu)", shard,
                  options_.max_in_flight_per_shard));
  }
  WireQueryRequest request;
  request.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  request.query = query;
  // Promise-backed future, resolved (decode included) by whoever settles
  // the pending call — the receiver thread, FailPending, or the send-
  // failure path. The caller can wait_for/poll it like any QueryRouter
  // future; decode errors and shard-side per-query errors surface as the
  // StatusOr. CallRegistered releases the window slot on any error path.
  auto state = std::make_shared<std::promise<StatusOr<QueryAnswer>>>();
  std::future<StatusOr<QueryAnswer>> future = state->get_future();
  CKSAFE_RETURN_IF_ERROR(CallRegistered(
      link, WireType::kQueryRequest, EncodeQueryRequest(request), request.id,
      /*counted=*/true, [state](StatusOr<WireFrame> frame) {
        state->set_value(DecodeAnswerFrame(std::move(frame)));
      }));
  return future;
}

StatusOr<QueryAnswer> ShardFleet::Ask(const Query& query) {
  CKSAFE_ASSIGN_OR_RETURN(std::future<StatusOr<QueryAnswer>> future,
                          Submit(query));
  return future.get();
}

Status ShardFleet::PublishTo(size_t shard, const std::string& tenant,
                             std::shared_ptr<const ReleaseSnapshot> snapshot) {
  WirePublishRequest request;
  request.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  request.tenant = tenant;
  request.snapshot = std::move(snapshot);
  CKSAFE_ASSIGN_OR_RETURN(
      const WireFrame frame,
      CallSync(shard, WireType::kPublishRequest, EncodePublishRequest(request),
               request.id, WireType::kPublishResponse));
  CKSAFE_ASSIGN_OR_RETURN(const WirePublishResponse response,
                          DecodePublishResponse(frame.payload));
  return response.status;
}

StatusOr<std::shared_ptr<const ReleaseSnapshot>> ShardFleet::Publish(
    const std::string& tenant, const PublishedRelease& release,
    size_t num_rows) {
  std::lock_guard<std::mutex> lock(publish_mu_);
  const uint64_t sequence = next_sequence_[tenant] + 1;
  std::shared_ptr<const ReleaseSnapshot> snapshot =
      MakeReleaseSnapshot(sequence, num_rows, release);
  CKSAFE_RETURN_IF_ERROR(PublishTo(ShardOf(tenant), tenant, snapshot));
  next_sequence_[tenant] = sequence;
  published_[{tenant, sequence}] = snapshot;
  return snapshot;
}

Status ShardFleet::PublishSnapshot(
    const std::string& tenant,
    std::shared_ptr<const ReleaseSnapshot> snapshot) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("cannot publish a null snapshot");
  }
  std::lock_guard<std::mutex> lock(publish_mu_);
  CKSAFE_RETURN_IF_ERROR(PublishTo(ShardOf(tenant), tenant, snapshot));
  next_sequence_[tenant] =
      std::max(next_sequence_[tenant], snapshot->sequence);
  published_[{tenant, snapshot->sequence}] = std::move(snapshot);
  return Status::OK();
}

Status ShardFleet::ResyncTenant(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(publish_mu_);
  WireHandoffRequest request;
  request.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  request.tenant = tenant;
  CKSAFE_ASSIGN_OR_RETURN(
      const WireFrame frame,
      CallSync(ShardOf(tenant), WireType::kHandoffRequest,
               EncodeHandoffRequest(request), request.id,
               WireType::kHandoffResponse));
  CKSAFE_ASSIGN_OR_RETURN(const WireHandoffResponse response,
                          DecodeHandoffResponse(frame.payload));
  if (response.status.code() == StatusCode::kNotFound) {
    // Nothing committed: the in-doubt publish did NOT survive.
    next_sequence_[tenant] = 0;
    return Status::OK();
  }
  CKSAFE_RETURN_IF_ERROR(response.status);
  uint64_t latest = 0;
  for (const auto& snapshot : response.snapshots) {
    latest = std::max(latest, snapshot->sequence);
    auto [it, inserted] =
        published_.try_emplace({tenant, snapshot->sequence}, snapshot);
    if (!inserted && !SnapshotsBitIdentical(*it->second, *snapshot)) {
      return Status::Internal(StrFormat(
          "resync: tenant '%s' sequence %llu differs from the writer's copy",
          tenant.c_str(),
          static_cast<unsigned long long>(snapshot->sequence)));
    }
  }
  next_sequence_[tenant] = std::max(next_sequence_[tenant], latest);
  return Status::OK();
}

Status ShardFleet::MigrateTenant(const std::string& tenant,
                                 size_t target_shard) {
  if (target_shard >= num_shards()) {
    return Status::OutOfRange(
        StrFormat("no shard %zu in a fleet of %zu", target_shard,
                  num_shards()));
  }
  // publish_mu_ serializes migration against the write path, so the
  // history shipped below is complete: no publish can land on the source
  // between the handoff and the routing flip.
  std::lock_guard<std::mutex> lock(publish_mu_);
  const size_t source_shard = ShardOf(tenant);
  if (source_shard == target_shard) return Status::OK();
  WireHandoffRequest handoff;
  handoff.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  handoff.tenant = tenant;
  CKSAFE_ASSIGN_OR_RETURN(
      const WireFrame frame,
      CallSync(source_shard, WireType::kHandoffRequest,
               EncodeHandoffRequest(handoff), handoff.id,
               WireType::kHandoffResponse));
  CKSAFE_ASSIGN_OR_RETURN(const WireHandoffResponse history,
                          DecodeHandoffResponse(frame.payload));
  CKSAFE_RETURN_IF_ERROR(history.status);
  // Publish-to-new: the target adopts the FULL ascending history, so the
  // tenant's sequences — and, on a durable target, the store's contiguity
  // — are preserved verbatim.
  for (const auto& snapshot : history.snapshots) {
    CKSAFE_RETURN_IF_ERROR(PublishTo(target_shard, tenant, snapshot));
  }
  {
    // The flip: queries routed from this instant land on the target.
    // In-flight queries on the source answer from bit-identical
    // snapshots, so no answer anywhere reflects the migration.
    std::lock_guard<std::mutex> routing_lock(routing_mu_);
    overrides_[tenant] = target_shard;
  }
  // Drain-old: the source forgets its handoff history. Its serving slot
  // stays (harmless — nothing routes there), and a durable source keeps
  // the history on disk.
  WireDropRequest drop;
  drop.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  drop.tenant = tenant;
  CKSAFE_ASSIGN_OR_RETURN(
      const WireFrame drop_frame,
      CallSync(source_shard, WireType::kDropRequest, EncodeDropRequest(drop),
               drop.id, WireType::kDropResponse));
  CKSAFE_ASSIGN_OR_RETURN(const WireDropResponse dropped,
                          DecodeDropResponse(drop_frame.payload));
  if (!dropped.status.ok() &&
      dropped.status.code() != StatusCode::kNotFound) {
    return dropped.status;
  }
  return Status::OK();
}

Status ShardFleet::StopLink(Link* link, int signal) {
  link->down.store(true, std::memory_order_release);
  if (signal != 0 && link->pid >= 0) {
    // ESRCH (already gone) is fine: the teardown below still runs.
    Status signalled = KillProcess(link->pid, signal);
    (void)signalled;
  }
  // The shard reads every request sent so far, then the close; it answers
  // each query it admitted before it exits, and its exit ends the
  // receiver's reads. A shard spawned by a failed Start has no receiver.
  link->socket.ShutdownWrite();
  if (link->receiver.joinable()) link->receiver.join();
  FailPending(link, Status::Unavailable("shard stopped"));
  if (link->pid < 0) return Status::OK();
  CKSAFE_ASSIGN_OR_RETURN(const ProcessExit proc_exit, WaitProcess(link->pid));
  (void)proc_exit;
  link->pid = -1;
  return Status::OK();
}

Status ShardFleet::KillShard(size_t shard) {
  return StopLink(GetLink(shard).get(), SIGKILL);
}

Status ShardFleet::RestartShard(size_t shard) {
  const std::shared_ptr<Link> link = GetLink(shard);
  if (!link->down.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        StrFormat("shard %zu is still up; kill or shut it down first",
                  shard));
  }
  CKSAFE_RETURN_IF_ERROR(StopLink(link.get(), /*signal=*/0));
  // A new link, the same durable directory: a durable shard recovers its
  // store and rehydrates — the kill-and-recover contract.
  CKSAFE_RETURN_IF_ERROR(Spawn(shard));
  return AwaitReady(shard);
}

StatusOr<WireShardStats> ShardFleet::PingShard(size_t shard) {
  WirePingRequest request;
  request.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  CKSAFE_ASSIGN_OR_RETURN(
      const WireFrame frame,
      CallSync(shard, WireType::kPingRequest, EncodePingRequest(request),
               request.id, WireType::kPingResponse));
  CKSAFE_ASSIGN_OR_RETURN(const WirePingResponse response,
                          DecodePingResponse(frame.payload));
  CKSAFE_RETURN_IF_ERROR(response.status);
  return response.stats;
}

Status ShardFleet::ShutdownAll() {
  std::vector<std::shared_ptr<Link>> links;
  {
    std::lock_guard<std::mutex> lock(links_mu_);
    links = links_;
  }
  Status first_error = Status::OK();
  for (const std::shared_ptr<Link>& link : links) {
    const Status stopped = StopLink(link.get(), /*signal=*/0);
    if (first_error.ok()) first_error = stopped;
  }
  return first_error;
}

SnapshotRegistry ShardFleet::PublishedRegistry() const {
  std::lock_guard<std::mutex> lock(publish_mu_);
  return published_;
}

}  // namespace cksafe
