// Batched disclosure query serving over RCU release snapshots.
//
// The read-side observation behind the router: once a release is frozen in
// a ReleaseSnapshot, ONE forward MINIMIZE2 sweep (DisclosureAnalyzer::
// Profile) answers *every* point query about it — IsCkSafe at any (c, k),
// worst-case disclosure at any k, both Figure-5 curve values — because the
// profile at budget K carries columns for every k <= K, each bit-identical
// to the dedicated point query (the PR 3 one-sweep contract). So instead
// of running a sweep per query, the router coalesces: concurrent callers
// enqueue into a bounded admission queue, the worker drains everything
// pending as one batch, resolves each tenant's current snapshot ONCE for
// the batch, runs at most one profile sweep per (tenant, snapshot) at the
// batch's maximum requested budget, and answers every waiting query off
// the cached curve. Unchanged snapshots re-serve the cached profile with
// no sweep at all; per-bucket audits amortize one prefix/suffix sweep per
// distinct requested k the same way.
//
// Consistency: every answer names the snapshot sequence it was computed
// against and is answered entirely from that one immutable snapshot —
// queries straddling a writer's swap get either the old release's answer
// or the new one, never a torn mix. Bit-identity: each answer equals, with
// exact `==` on every field, a fresh synchronous DisclosureAnalyzer over
// the same snapshot's bucketization: ReferenceAnswer
// (serve/reference_answer.h), which every serving test and self-check
// verifies against.
//
// Backpressure: the admission queue is bounded; Submit returns
// ResourceExhausted instead of queueing unboundedly when readers outrun
// the worker (the caller decides whether to retry, shed, or propagate).

#ifndef CKSAFE_SERVE_QUERY_ROUTER_H_
#define CKSAFE_SERVE_QUERY_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cksafe/core/disclosure.h"
#include "cksafe/core/logprob.h"
#include "cksafe/serve/snapshot_store.h"
#include "cksafe/util/bounded_queue.h"
#include "cksafe/util/status.h"

namespace cksafe {

/// The point-query kinds the router serves. All are answered from the
/// per-snapshot profile / per-bucket sweeps described in the file comment.
enum class QueryKind : uint8_t {
  kIsCkSafe = 0,    ///< Definition 13 verdict at (c, k)
  kDisclosure = 1,  ///< max disclosure w.r.t. L^k_basic (Definition 6)
  kProfileAtK = 2,  ///< both Figure-5 curve values at k
  kPerBucket = 3,   ///< Definition 5 per-bucket audit at (bucket, k)
};

/// One disclosure query against a tenant's current release.
struct Query {
  std::string tenant;
  QueryKind kind = QueryKind::kIsCkSafe;
  double c = 0.7;     ///< kIsCkSafe only: disclosure threshold, > 0
  size_t k = 0;       ///< attacker power (atom budget), all kinds
  size_t bucket = 0;  ///< kPerBucket only: bucket index in the snapshot
};

/// Answer to one Query, tagged with the snapshot that produced it.
struct QueryAnswer {
  /// Sequence of the (one) snapshot the answer was computed against.
  uint64_t snapshot_sequence = 0;
  /// kIsCkSafe: the safety verdict, decided in log space (exact even
  /// where `disclosure` saturates at 1.0). Unused for other kinds.
  bool safe = false;
  /// Implication-adversary disclosure at k (kIsCkSafe / kDisclosure /
  /// kProfileAtK), or the bucket's worst-case disclosure (kPerBucket).
  double disclosure = 0.0;
  /// kProfileAtK only: the negated-atom adversary's curve value at k.
  double negation = 0.0;
  /// Exact log-ratio companion of `disclosure` for the implication-side
  /// kinds (kLogInfeasible for kPerBucket, whose public query surface is
  /// linear-domain).
  LogProb log_r = kLogInfeasible;

  /// Exact equality of every field, the doubles included.
  bool operator==(const QueryAnswer&) const = default;
};

/// Work / traffic counters of a router. Snapshot-copied by stats().
struct RouterStats {
  uint64_t submitted = 0;          ///< queries admitted into the queue
  uint64_t rejected = 0;           ///< Submit backpressure rejections
  uint64_t answered = 0;           ///< queries answered (incl. errors)
  uint64_t batches = 0;            ///< worker drains that served >= 1 query
  uint64_t profile_sweeps = 0;     ///< DisclosureProfile computations
  uint64_t per_bucket_sweeps = 0;  ///< PerBucketDisclosure computations
  uint64_t snapshot_reloads = 0;   ///< per-tenant cache resets on swap

  /// Queries served per sweep of any kind — the coalescing win over the
  /// naive one-sweep-per-query baseline.
  double CoalescingFactor() const {
    const uint64_t sweeps = profile_sweeps + per_bucket_sweeps;
    return sweeps == 0 ? static_cast<double>(answered)
                       : static_cast<double>(answered) / sweeps;
  }
};

/// Coalescing query front end over a ServingDirectory. One worker thread
/// (or manual draining in tests) serves batches; any number of threads may
/// Submit/Ask concurrently.
class QueryRouter {
 public:
  struct Options {
    /// Admission queue capacity; TryPush beyond it is the backpressure
    /// signal (ResourceExhausted from Submit).
    size_t queue_capacity = 4096;
    /// Spawn the worker thread. false = manual mode: the owner calls
    /// DrainOnce() to process pending queries deterministically (tests).
    bool start_worker = true;
  };

  /// `directory` must outlive the router.
  QueryRouter(const ServingDirectory* directory, Options options);
  explicit QueryRouter(const ServingDirectory* directory)
      : QueryRouter(directory, Options()) {}

  /// Stops the worker (drains already-admitted queries first).
  ~QueryRouter();

  QueryRouter(const QueryRouter&) = delete;
  QueryRouter& operator=(const QueryRouter&) = delete;

  /// Completion callback: receives one admitted query's answer or its
  /// per-query error.
  using Done = std::function<void(StatusOr<QueryAnswer>)>;

  /// Validates and enqueues one query; `done` runs when a batch containing
  /// it is served. Fails fast — without enqueueing — with OutOfRange for
  /// budgets beyond Minimize2Forward::kMaxAnalysisBudget, InvalidArgument
  /// for a non-positive c on kIsCkSafe, ResourceExhausted when the queue
  /// is full (backpressure), and FailedPrecondition after Stop(); `done`
  /// never runs after such an admission failure. Per-query serving errors
  /// (unknown tenant, no published release, bucket out of range) arrive
  /// through `done` instead, so one bad query never poisons its batch.
  ///
  /// After an OK return `done` runs exactly once, on the thread that
  /// answers the query: the worker, a DrainOnce() caller, or (for a query
  /// still queued in manual mode) the Stop() caller, which passes
  /// FailedPrecondition. It runs inside the batch, so it must not block,
  /// and it must not call Stop().
  Status Submit(Query query, Done done);

  /// Future form of Submit: the same admission, with `done` resolving the
  /// returned future.
  StatusOr<std::future<StatusOr<QueryAnswer>>> Submit(Query query);

  /// Blocking convenience: Submit and wait. Admission failures (including
  /// backpressure) are returned directly.
  StatusOr<QueryAnswer> Ask(Query query);

  /// Manual mode: serves at most one batch (everything currently queued)
  /// on the calling thread; returns the number of queries answered (0
  /// when the queue was empty). CHECK-fails when a worker thread owns the
  /// queue.
  size_t DrainOnce();

  /// Closes admission and joins the worker after it drains the queue.
  /// Idempotent; implied by destruction. Drain guarantee: when Stop()
  /// returns — from ANY concurrent caller, not just the one that won the
  /// race to close — every callback a successful Submit accepted has run
  /// (with an answer or an error), so no caller is ever left blocked on
  /// a query the router abandoned.
  void Stop();

  /// Consistent point-in-time copy of the counters.
  RouterStats stats() const;

 private:
  struct Pending {
    Query query;
    Done done;
  };

  /// Everything the worker caches for one (tenant, snapshot): the pinned
  /// snapshot, an analyzer over its bucketization, the widest profile
  /// computed so far, and per-bucket sweeps keyed by budget. Reset when
  /// the tenant's current snapshot changes. Only the worker touches it.
  struct TenantServingState {
    std::shared_ptr<const ReleaseSnapshot> snapshot;
    std::unique_ptr<DisclosureAnalyzer> analyzer;
    DisclosureProfile profile;  ///< valid iff profile_valid
    bool profile_valid = false;
    /// High-water profile budget across the tenant's lifetime — kept
    /// through snapshot reloads, so the first sweep against a fresh
    /// snapshot is already as wide as any budget the tenant has asked
    /// for (recomputing at only the triggering batch's budget used to
    /// narrow the cache and force an extra sweep per swap).
    size_t profile_budget = 0;
    std::map<size_t, std::vector<double>> per_bucket;  ///< by budget k
  };

  void WorkerLoop();
  void ServeBatch(std::vector<Pending>* batch);
  void Answer(Pending* pending, StatusOr<QueryAnswer> answer);

  /// Internal counter cell: relaxed atomics, so the Submit fast path never
  /// shares a lock with other submitters or the worker.
  struct AtomicStats {
    std::atomic<uint64_t> submitted{0};
    std::atomic<uint64_t> rejected{0};
    std::atomic<uint64_t> answered{0};
    std::atomic<uint64_t> batches{0};
    std::atomic<uint64_t> profile_sweeps{0};
    std::atomic<uint64_t> per_bucket_sweeps{0};
    std::atomic<uint64_t> snapshot_reloads{0};
  };

  const ServingDirectory* directory_;
  BoundedQueue<Pending> queue_;
  const bool manual_mode_;

  // Worker-owned state (single consumer): per-tenant caches, the shared
  // MINIMIZE1 table cache (histograms recur heavily across snapshots of a
  // growing stream — the §3.3.3 amortization, carried across swaps), and
  // the reusable DP arena.
  std::map<std::string, TenantServingState> tenant_state_;
  DisclosureCache table_cache_;
  Minimize2Workspace workspace_;
  std::vector<Pending> drain_buffer_;

  AtomicStats stats_;

  std::thread worker_;
  bool stopped_ = false;
  std::mutex stop_mu_;
};

}  // namespace cksafe

#endif  // CKSAFE_SERVE_QUERY_ROUTER_H_
