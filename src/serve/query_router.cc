#include "cksafe/serve/query_router.h"

#include <algorithm>
#include <utility>

#include "cksafe/core/minimize2.h"
#include "cksafe/util/check.h"
#include "cksafe/util/string_util.h"

namespace cksafe {

QueryRouter::QueryRouter(const ServingDirectory* directory, Options options)
    : directory_(directory),
      queue_(options.queue_capacity),
      manual_mode_(!options.start_worker) {
  CKSAFE_CHECK(directory != nullptr);
  if (!manual_mode_) {
    worker_ = std::thread([this] { WorkerLoop(); });
  }
}

QueryRouter::~QueryRouter() { Stop(); }

Status QueryRouter::Submit(Query query, Done done) {
  // Admission-time validation: absurd budgets and malformed thresholds are
  // rejected before they consume queue space or reach the sweep.
  if (Status budget = Minimize2Forward::ValidateBudget(query.k);
      !budget.ok()) {
    return budget;
  }
  if (query.kind == QueryKind::kIsCkSafe && !(query.c > 0.0)) {
    return Status::InvalidArgument(
        StrFormat("kIsCkSafe requires a threshold c > 0, got %g", query.c));
  }
  Pending pending{std::move(query), std::move(done)};
  // Count the submission BEFORE the push: the instant TryPush succeeds the
  // worker may pop and answer the query, so incrementing afterwards let a
  // concurrent stats() reader observe answered > submitted. Counting first
  // and rolling back on rejection keeps the invariant answered <= submitted
  // at every instant (a not-yet-rolled-back rejection only overcounts
  // submitted, which is the benign direction).
  stats_.submitted.fetch_add(1, std::memory_order_relaxed);
  if (Status admitted = queue_.TryPush(std::move(pending)); !admitted.ok()) {
    stats_.submitted.fetch_sub(1, std::memory_order_relaxed);
    if (admitted.code() == StatusCode::kResourceExhausted) {
      // Only genuine backpressure counts; a closed-queue rejection after
      // Stop() is shutdown, not load.
      stats_.rejected.fetch_add(1, std::memory_order_relaxed);
    }
    return admitted;
  }
  return Status::OK();
}

StatusOr<std::future<StatusOr<QueryAnswer>>> QueryRouter::Submit(Query query) {
  auto promise = std::make_shared<std::promise<StatusOr<QueryAnswer>>>();
  std::future<StatusOr<QueryAnswer>> future = promise->get_future();
  CKSAFE_RETURN_IF_ERROR(
      Submit(std::move(query), [promise](StatusOr<QueryAnswer> answer) {
        promise->set_value(std::move(answer));
      }));
  return future;
}

StatusOr<QueryAnswer> QueryRouter::Ask(Query query) {
  auto submitted = Submit(std::move(query));
  if (!submitted.ok()) return submitted.status();
  return submitted.value().get();
}

size_t QueryRouter::DrainOnce() {
  CKSAFE_CHECK(manual_mode_)
      << "DrainOnce is only available with start_worker = false";
  if (!queue_.TryPopAll(&drain_buffer_)) return 0;
  const size_t served = drain_buffer_.size();
  ServeBatch(&drain_buffer_);
  return served;
}

void QueryRouter::Stop() {
  // stop_mu_ is held across the ENTIRE close-and-drain, not just the
  // stopped_ flip: when any Stop() call returns, every query that was
  // accepted by Submit has been answered. Flipping the flag first and
  // draining outside the lock let a concurrent second caller return while
  // the first was still joining the worker, and then tear down what the
  // draining callbacks still use. Safe to hold: neither the worker loop
  // nor Submit ever takes stop_mu_, so there is no lock-order cycle, and a
  // Submit racing past queue_.Close() gets FailedPrecondition from TryPush
  // without having enqueued a callback.
  std::lock_guard<std::mutex> lock(stop_mu_);
  if (stopped_) return;
  queue_.Close();
  if (worker_.joinable()) {
    worker_.join();  // the worker drains admitted queries before exiting
  } else {
    // Manual mode: answer anything still queued so no caller dangles.
    while (queue_.TryPopAll(&drain_buffer_)) {
      for (Pending& pending : drain_buffer_) {
        Answer(&pending, Status::FailedPrecondition("router stopped"));
      }
    }
  }
  stopped_ = true;
}

RouterStats QueryRouter::stats() const {
  RouterStats out;
  // Answered BEFORE submitted (acquire, paired with Answer()): every answered
  // query was counted as submitted first, so the copy keeps the invariant.
  out.answered = stats_.answered.load(std::memory_order_acquire);
  out.submitted = stats_.submitted.load(std::memory_order_relaxed);
  out.rejected = stats_.rejected.load(std::memory_order_relaxed);
  out.batches = stats_.batches.load(std::memory_order_relaxed);
  out.profile_sweeps = stats_.profile_sweeps.load(std::memory_order_relaxed);
  out.per_bucket_sweeps =
      stats_.per_bucket_sweeps.load(std::memory_order_relaxed);
  out.snapshot_reloads =
      stats_.snapshot_reloads.load(std::memory_order_relaxed);
  return out;
}

void QueryRouter::WorkerLoop() {
  while (queue_.PopAll(&drain_buffer_)) {
    ServeBatch(&drain_buffer_);
  }
}

void QueryRouter::Answer(Pending* pending, StatusOr<QueryAnswer> answer) {
  // Count BEFORE running the callback: the instant it runs, the submitter
  // can observe its answer (and, over the shard wire, ping for stats), so
  // incrementing afterwards let a client that already holds a response
  // read answered as if the query were still pending. Submitted was
  // counted before the push, so answered <= submitted still holds.
  stats_.answered.fetch_add(1, std::memory_order_release);
  pending->done(std::move(answer));
}

void QueryRouter::ServeBatch(std::vector<Pending>* batch) {
  if (batch->empty()) return;
  uint64_t profile_sweeps = 0;
  uint64_t per_bucket_sweeps = 0;
  uint64_t reloads = 0;

  // Group by tenant (pointers into *batch stay stable — no reallocation).
  std::map<std::string, std::vector<Pending*>> by_tenant;
  for (Pending& pending : *batch) {
    by_tenant[pending.query.tenant].push_back(&pending);
  }

  for (auto& [tenant, queries] : by_tenant) {
    const SnapshotStore* store = directory_->Find(tenant);
    if (store == nullptr) {
      for (Pending* pending : queries) {
        Answer(pending, Status::NotFound("unknown tenant '" + tenant + "'"));
      }
      continue;
    }
    // Resolve the snapshot ONCE per (tenant, batch): every answer below is
    // consistent with exactly this snapshot even while a writer swaps, and
    // the shared_ptr pins it for the duration of the batch.
    const std::shared_ptr<const ReleaseSnapshot> snapshot = store->Current();
    if (snapshot == nullptr) {
      for (Pending* pending : queries) {
        Answer(pending,
               Status::FailedPrecondition("tenant '" + tenant +
                                          "' has no published release yet"));
      }
      continue;
    }

    TenantServingState& state = tenant_state_[tenant];
    if (state.snapshot != snapshot) {
      state.snapshot = snapshot;
      state.analyzer = std::make_unique<DisclosureAnalyzer>(
          snapshot->bucketization, &table_cache_);
      state.profile_valid = false;
      state.per_bucket.clear();
      ++reloads;
    }

    // One profile sweep at the batch's maximum requested budget answers
    // every curve-shaped query in it: column k of the wider sweep is
    // bit-identical to a dedicated budget-k sweep (the one-sweep profile
    // contract), so widening the cached profile never changes an answer.
    size_t needed_k = 0;
    bool needs_profile = false;
    for (const Pending* pending : queries) {
      if (pending->query.kind != QueryKind::kPerBucket) {
        needs_profile = true;
        needed_k = std::max(needed_k, pending->query.k);
      }
    }
    if (needs_profile &&
        (!state.profile_valid || state.profile.max_k() < needed_k)) {
      // Sweep at the tenant's historical high-water budget, not just this
      // batch's maximum: a snapshot reload invalidates the cached profile,
      // and recomputing at exactly needed_k used to narrow the cache so
      // the next wide query forced a second sweep per swap. Widening is
      // free of answer drift (column k of a wider sweep is bit-identical
      // to a dedicated budget-k sweep), so remembering the width only
      // removes sweeps.
      state.profile_budget = std::max(needed_k, state.profile_budget);
      state.profile = state.analyzer->Profile(state.profile_budget,
                                              &workspace_);
      state.profile_valid = true;
      ++profile_sweeps;
    }

    for (Pending* pending : queries) {
      const Query& query = pending->query;
      QueryAnswer answer;
      answer.snapshot_sequence = snapshot->sequence;
      if (query.kind == QueryKind::kPerBucket) {
        if (query.bucket >= snapshot->bucketization.num_buckets()) {
          Answer(pending,
                 Status::OutOfRange(StrFormat(
                     "bucket %zu out of range (snapshot %llu has %zu buckets)",
                     query.bucket,
                     static_cast<unsigned long long>(snapshot->sequence),
                     snapshot->bucketization.num_buckets())));
          continue;
        }
        auto it = state.per_bucket.find(query.k);
        if (it == state.per_bucket.end()) {
          it = state.per_bucket
                   .emplace(query.k, state.analyzer->PerBucketDisclosure(
                                         query.k, &workspace_))
                   .first;
          ++per_bucket_sweeps;
        }
        answer.disclosure = it->second[query.bucket];
      } else {
        answer.disclosure = state.profile.implication[query.k];
        answer.log_r = state.profile.implication_log_r[query.k];
        if (query.kind == QueryKind::kIsCkSafe) {
          answer.safe = state.profile.IsCkSafe(query.c, query.k);
        } else if (query.kind == QueryKind::kProfileAtK) {
          answer.negation = state.profile.negation[query.k];
        }
      }
      Answer(pending, std::move(answer));
    }
  }

  // `answered` is counted per query inside Answer(), before each callback
  // runs — see the comment there.
  stats_.batches.fetch_add(1, std::memory_order_relaxed);
  stats_.profile_sweeps.fetch_add(profile_sweeps, std::memory_order_relaxed);
  stats_.per_bucket_sweeps.fetch_add(per_bucket_sweeps,
                                     std::memory_order_relaxed);
  stats_.snapshot_reloads.fetch_add(reloads, std::memory_order_relaxed);
}

}  // namespace cksafe
