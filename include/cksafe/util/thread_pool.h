// A small fixed-size thread pool for the batch-evaluation subsystem.
//
// Deliberately minimal: a shared FIFO queue under one mutex, no work
// stealing. The lattice search hands the pool level-sized batches of node
// tasks, each of which groups a node into histograms and profiles it (a
// MINIMIZE2 sweep, or a closed form when a bucket is single-valued). A
// task costs tens of microseconds, far more than a queue hand-off, so a
// fancier scheduler would buy nothing.
//
// Tasks must not throw: the pool runs them under noexcept expectations and
// an escaping exception terminates the process (the codebase signals
// failure via Status or CKSAFE_CHECK, not exceptions).

#ifndef CKSAFE_UTIL_THREAD_POOL_H_
#define CKSAFE_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cksafe {

/// Fixed set of worker threads consuming a shared task queue.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1). Prefer DefaultThreadCount() when
  /// the caller has no better information.
  explicit ThreadPool(size_t num_threads);

  /// Drains the queue, then joins every worker.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// Enqueues one task. Never blocks on task execution.
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished executing
  /// (not merely been dequeued).
  void Wait();

  /// std::thread::hardware_concurrency() with a floor of 1.
  static size_t DefaultThreadCount();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  size_t in_flight_ = 0;  // dequeued but not yet finished
  bool shutting_down_ = false;
  std::vector<std::thread> threads_;
};

/// Runs fn(0), ..., fn(n - 1), distributing iterations over `pool` via an
/// atomic self-scheduling counter; the calling thread participates, so the
/// pool's own threads are pure extra parallelism. With `pool` == nullptr
/// the loop runs serially on the calling thread — callers parameterized on
/// "how parallel" need no special casing.
///
/// Blocks until every iteration has finished. `fn` must be safe to call
/// concurrently from multiple threads and must not throw.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn);

}  // namespace cksafe

#endif  // CKSAFE_UTIL_THREAD_POOL_H_
