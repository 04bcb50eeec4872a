// Fixed-size worker pool for fanning out independent simulations.
//
// The DSE optimizers evaluate Nv independent candidate configurations per
// greedy step; the policy's batch engine partitions a candidate set into
// interpolate-vs-simulate up front and runs only the *simulations* here.
// Because every result is written to a caller-owned slot addressed by
// index, the execution schedule cannot influence the outcome: a batch run
// on the pool is bit-identical to the same batch run inline.
//
// One batch is active at a time (run_indexed() serializes callers); the
// calling thread participates in draining the batch, so a pool of W
// workers executes with W+1 threads and never deadlocks on itself.
//
// Lock discipline is annotated for the Clang capability analysis
// (util/thread_annotations.hpp): `batch_` and `stopping_` are guarded by
// `mutex_`, and the condition-variable waits are written as explicit
// predicate loops so every guarded read happens where the analysis can see
// the lock held.
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

  /// Run task(i) for every i in [0, count) across the pool and block until
  /// all have finished. Every task runs regardless of sibling failures —
  /// one throwing task never aborts the batch, and the side effects of the
  /// surviving tasks are retained. All captured errors are returned, sorted
  /// by task index; the pool stays usable afterwards.
  std::vector<TaskError> run_indexed_collect(
      std::size_t count, const std::function<void(std::size_t)>& task)
      ACE_EXCLUDES(run_mutex_, mutex_) {
    if (count == 0) return {};
    const LockGuard serialize(run_mutex_);
    Batch batch;
    batch.task = &task;
    batch.count = count;

    std::vector<TaskError> errors;
    {
      UniqueLock lock(mutex_);
      batch_ = &batch;
      wake_.notify_all();
      // The caller helps drain its own batch.
      while (batch.next < batch.count) {
        const std::size_t i = batch.next++;
        lock.unlock();
        execute(batch, i);
        lock.lock();
        ++batch.done;
      }
      // Draining under run_mutex_ IS the batch serialization seam: one
      // run_indexed at a time, and the workers that must wake us never
      // take run_mutex_.
      // ace-lint: allow(cv-wait-foreign-lock)
      while (batch.done != batch.count) lock.wait(done_);
      batch_ = nullptr;
      // All tasks have completed and the pool is idle again; move the
      // error list out while still holding the mutex that guarded it.
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
  struct Batch {
    const std::function<void(std::size_t)>* task = nullptr;
    std::size_t count = 0;
    std::size_t next = 0;  ///< Next index to claim (guarded by mutex_).
    std::size_t done = 0;  ///< Completed tasks (guarded by mutex_).
    std::vector<TaskError> errors;  ///< All failures (guarded by mutex_).
  };

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
    UniqueLock lock(mutex_);
    for (;;) {
      while (!stopping_ && !(batch_ && batch_->next < batch_->count))
        lock.wait(wake_);
      if (stopping_) return;
      Batch& batch = *batch_;
      const std::size_t i = batch.next++;
      lock.unlock();
      execute(batch, i);
      lock.lock();
      if (++batch.done == batch.count) done_.notify_all();
    }
  }

  std::vector<std::thread> workers_;
  /// One run_indexed() at a time; always taken before mutex_.
  Mutex run_mutex_ ACE_ACQUIRED_BEFORE(mutex_){lock_order::Rank::kPoolRun,
                                               "util.pool_run"};
  Mutex mutex_{lock_order::Rank::kPool, "util.pool"};
  std::condition_variable wake_;  ///< Workers wait here for a batch.
  std::condition_variable done_;  ///< run_indexed() waits here for drain.
  Batch* batch_ ACE_GUARDED_BY(mutex_) = nullptr;
  bool stopping_ ACE_GUARDED_BY(mutex_) = false;
};

/// Run fn(i) for i in [0, n): inline in index order when `pool` is null
/// (the serial reference path), on the pool otherwise. Every index runs,
/// all failures are returned sorted by index, and the serial path mirrors
/// the pool path exactly (a thrown fn(i) does not stop the remaining
/// indices). Callers write results into index-addressed slots, so both
/// paths yield identical data.
inline std::vector<TaskError> parallel_for_indexed_collect(
    ThreadPool* pool, std::size_t n,
    const std::function<void(std::size_t)>& fn) {
  if (pool == nullptr || n <= 1) {
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
  return pool->run_indexed_collect(n, fn);
}

}  // namespace ace::util
