// Fixed-size worker pool for fanning out independent simulations.
//
// The DSE optimizers evaluate Nv independent candidate configurations per
// greedy step; the policy's batch engine partitions a candidate set into
// interpolate-vs-simulate up front and runs only the *simulations* here.
// Because every result is written to a caller-owned slot addressed by
// index, the execution schedule cannot influence the outcome: a batch run
// on the pool is bit-identical to the same batch run inline.
//
// Batches may be open concurrently and may nest: run_indexed_collect() is
// callable from several threads at once and from inside a task of the same
// pool (a simulation splitting its own independent parts, say). The calling
// thread drains its own batch first and then waits for the indices other
// threads claimed; idle workers take the next index of the newest open
// batch, so a nested batch is served before the wider one that spawned it.
// A thread only ever waits for tasks of a batch it opened, and those run
// on threads that claimed them while idle, so every wait points strictly
// down the tree of nested batches and the pool never deadlocks on itself.
// ThreadPool::current() names the pool whose task the calling thread is
// running, which is how a task finds the pool to nest on.
//
// Lock discipline is annotated for the Clang capability analysis
// (util/thread_annotations.hpp): `open_`, `stopping_` and every Batch's
// counters and error list are guarded by `mutex_`, and the
// condition-variable waits are written as explicit predicate loops so
// every guarded read happens where the analysis can see the lock held.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace ace::util {

/// One failed task from a collecting batch run.
struct TaskError {
  std::size_t index = 0;       ///< Task index passed to the callable.
  std::exception_ptr error;    ///< What it threw.
};

class ThreadPool {
 public:
  /// Spawn `workers` threads (clamped to >= 1).
  explicit ThreadPool(std::size_t workers) {
    if (workers == 0) workers = 1;
    workers_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  }

  ~ThreadPool() {
    {
      const LockGuard lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_all();
    for (auto& worker : workers_) worker.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return workers_.size(); }

  /// The pool whose task the calling thread is running: set on the pool's
  /// workers, and on a run_indexed_collect() caller for the duration of
  /// the call. Null on any other thread.
  static ThreadPool* current() { return current_; }

  /// Run task(i) for every i in [0, count) across the pool and block until
  /// all have finished. The calling thread runs index 0 itself and helps
  /// with the rest. Every task runs regardless of sibling failures — one
  /// throwing task never aborts the batch, and the side effects of the
  /// surviving tasks are retained. All captured errors are returned,
  /// sorted by task index; the pool stays usable afterwards. Callable
  /// concurrently and from inside a task of this pool.
  std::vector<TaskError> run_indexed_collect(
      std::size_t count, const std::function<void(std::size_t)>& task)
      ACE_EXCLUDES(mutex_) {
    if (count == 0) return {};
    Batch batch;
    batch.task = &task;
    batch.count = count;
    const CurrentScope scope(this);

    std::vector<TaskError> errors;
    {
      UniqueLock lock(mutex_);
      open_.push_back(&batch);
      // The caller drains its own batch; it claims index 0 before the lock
      // first drops, so a one-task batch always runs on the caller.
      while (batch.next < batch.count) {
        const std::size_t i = claim(batch);
        if (i == 0 && batch.next < batch.count) wake_.notify_all();
        lock.unlock();
        execute(batch, i);
        lock.lock();
        ++batch.done;
      }
      while (batch.done != batch.count) lock.wait(done_);
      // Every task has completed; move the error list out while still
      // holding the mutex that guarded it.
      errors = std::move(batch.errors);
    }
    // Scheduling determines arrival order; sort so callers see a
    // reproducible, index-ordered error list.
    std::sort(errors.begin(), errors.end(),
              [](const TaskError& a, const TaskError& b) {
                return a.index < b.index;
              });
    return errors;
  }

  /// Historical rethrow semantics, layered over the collecting primitive:
  /// the batch always drains fully, then the error of the *lowest-indexed*
  /// failed task (a deterministic choice, unlike first-to-occur) is
  /// rethrown. Surviving tasks' side effects are retained.
  void run_indexed(std::size_t count,
                   const std::function<void(std::size_t)>& task) {
    const std::vector<TaskError> errors = run_indexed_collect(count, task);
    if (!errors.empty()) std::rethrow_exception(errors.front().error);
  }

 private:
  /// One open run_indexed_collect() call; lives on its caller's stack.
  /// Every counter and the error list are guarded by mutex_.
  struct Batch {
    const std::function<void(std::size_t)>* task = nullptr;
    std::size_t count = 0;
    std::size_t next = 0;  ///< Next index to claim.
    std::size_t done = 0;  ///< Completed tasks.
    std::vector<TaskError> errors;  ///< All failures.
  };

  /// Sets current() for a scope and restores the outer value after it, so
  /// a nested call leaves its caller's pool in place.
  class CurrentScope {
   public:
    explicit CurrentScope(ThreadPool* pool) : outer_(current_) {
      current_ = pool;
    }
    ~CurrentScope() { current_ = outer_; }
    CurrentScope(const CurrentScope&) = delete;
    CurrentScope& operator=(const CurrentScope&) = delete;

   private:
    ThreadPool* outer_;
  };

  /// Take the next index of `batch`; a batch with nothing left to claim
  /// leaves the open list.
  std::size_t claim(Batch& batch) ACE_REQUIRES(mutex_) {
    const std::size_t i = batch.next++;
    if (batch.next == batch.count)
      open_.erase(std::find(open_.begin(), open_.end(), &batch));
    return i;
  }

  /// Run one task outside the lock; record any failure.
  void execute(Batch& batch, std::size_t i) ACE_EXCLUDES(mutex_) {
    std::exception_ptr error;
    try {
      (*batch.task)(i);
    } catch (...) {
      error = std::current_exception();
    }
    if (error) {
      const LockGuard lock(mutex_);
      batch.errors.push_back({i, error});
    }
  }

  void worker_loop() ACE_EXCLUDES(mutex_) {
    const CurrentScope scope(this);
    UniqueLock lock(mutex_);
    for (;;) {
      while (!stopping_ && open_.empty()) lock.wait(wake_);
      if (stopping_) return;
      Batch& batch = *open_.back();
      const std::size_t i = claim(batch);
      lock.unlock();
      execute(batch, i);
      lock.lock();
      if (++batch.done == batch.count) done_.notify_all();
    }
  }

  static inline thread_local ThreadPool* current_ = nullptr;

  std::vector<std::thread> workers_;
  Mutex mutex_{lock_order::Rank::kPool, "util.pool"};
  std::condition_variable wake_;  ///< Workers wait here for an open batch.
  std::condition_variable done_;  ///< Callers wait here for their batch.
  /// Batches with indices left to claim, oldest first.
  std::vector<Batch*> open_ ACE_GUARDED_BY(mutex_);
  bool stopping_ ACE_GUARDED_BY(mutex_) = false;
};

/// Run fn(i) for i in [0, n): inline in index order when `pool` is null
/// (the serial reference path), as a batch of the pool otherwise — even
/// for n == 1, which then runs on the calling thread with current() set,
/// so the task can split its own parts across the pool. Every index runs,
/// all failures are returned sorted by index, and the serial path mirrors
/// the pool path exactly (a thrown fn(i) does not stop the remaining
/// indices). Callers write results into index-addressed slots, so both
/// paths yield identical data.
inline std::vector<TaskError> parallel_for_indexed_collect(
    ThreadPool* pool, std::size_t n,
    const std::function<void(std::size_t)>& fn) {
  if (pool != nullptr) return pool->run_indexed_collect(n, fn);
  std::vector<TaskError> errors;
  for (std::size_t i = 0; i < n; ++i) {
    try {
      fn(i);
    } catch (...) {
      errors.push_back({i, std::current_exception()});
    }
  }
  return errors;
}

}  // namespace ace::util
