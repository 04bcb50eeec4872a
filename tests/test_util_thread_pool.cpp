#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

namespace u = ace::util;

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  u::ThreadPool pool(4);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.run_indexed(kCount, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  u::ThreadPool pool(3);
  std::vector<double> out(64, 0.0);
  for (int round = 1; round <= 5; ++round) {
    pool.run_indexed(out.size(), [&](std::size_t i) {
      out[i] = static_cast<double>(round) * static_cast<double>(i);
    });
    for (std::size_t i = 0; i < out.size(); ++i)
      EXPECT_DOUBLE_EQ(out[i],
                       static_cast<double>(round) * static_cast<double>(i));
  }
}

TEST(ThreadPool, ZeroCountIsANoop) {
  u::ThreadPool pool(2);
  bool touched = false;
  pool.run_indexed(0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, WorkerCountClampsToAtLeastOne) {
  u::ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 1u);
  std::atomic<int> ran{0};
  pool.run_indexed(8, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, PropagatesFirstExceptionAndStaysUsable) {
  u::ThreadPool pool(4);
  EXPECT_THROW(pool.run_indexed(100,
                                [&](std::size_t i) {
                                  if (i == 37)
                                    throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // The failed batch drained fully; the pool accepts new work.
  std::atomic<int> ran{0};
  pool.run_indexed(16, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPool, ResultsIdenticalAcrossPoolSizes) {
  // Index-addressed slots make the result independent of scheduling.
  auto value = [](std::size_t i) { return static_cast<double>(i * i) + 0.5; };
  std::vector<double> serial(257, 0.0);
  for (std::size_t i = 0; i < serial.size(); ++i) serial[i] = value(i);
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    u::ThreadPool pool(workers);
    std::vector<double> out(serial.size(), 0.0);
    pool.run_indexed(out.size(), [&](std::size_t i) { out[i] = value(i); });
    EXPECT_EQ(out, serial);
  }
}

TEST(ThreadPoolCollect, CapturesAllErrorsSortedByIndex) {
  u::ThreadPool pool(4);
  constexpr std::size_t kCount = 200;
  std::vector<std::atomic<int>> hits(kCount);
  const std::vector<u::TaskError> errors =
      pool.run_indexed_collect(kCount, [&](std::size_t i) {
        ++hits[i];
        if (i % 17 == 3) throw std::runtime_error("task " + std::to_string(i));
      });
  // Every failure is reported (none aborts the batch), sorted by index.
  std::vector<std::size_t> expected;
  for (std::size_t i = 0; i < kCount; ++i)
    if (i % 17 == 3) expected.push_back(i);
  ASSERT_EQ(errors.size(), expected.size());
  for (std::size_t e = 0; e < errors.size(); ++e) {
    EXPECT_EQ(errors[e].index, expected[e]);
    try {
      std::rethrow_exception(errors[e].error);
      FAIL() << "error slot held no exception";
    } catch (const std::runtime_error& ex) {
      EXPECT_EQ(ex.what(), "task " + std::to_string(expected[e]));
    }
  }
  // Surviving tasks' side effects are retained: every index ran once.
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPoolCollect, NoErrorsYieldsEmptyListAndPoolStaysUsable) {
  u::ThreadPool pool(3);
  EXPECT_TRUE(pool.run_indexed_collect(50, [](std::size_t) {}).empty());
  const auto errors = pool.run_indexed_collect(
      8, [](std::size_t i) { if (i == 2) throw std::logic_error("x"); });
  EXPECT_EQ(errors.size(), 1u);
  std::atomic<int> ran{0};
  pool.run_indexed_collect(16, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPoolCollect, RethrowWrapperThrowsLowestIndexedError) {
  // run_indexed is now a wrapper over the collecting primitive: it drains
  // the whole batch, then rethrows the lowest-indexed error — a
  // deterministic choice, unlike first-to-occur.
  u::ThreadPool pool(4);
  try {
    pool.run_indexed(64, [&](std::size_t i) {
      if (i == 50 || i == 9) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "run_indexed did not throw";
  } catch (const std::runtime_error& ex) {
    EXPECT_STREQ(ex.what(), "9");
  }
}

// A task may open a batch on its own pool, and that batch's tasks may open
// another: every index of every level runs exactly once and nothing waits
// on itself, whatever the pool size.
TEST(ThreadPoolNested, NestedBatchesRunEveryIndexOnce) {
  constexpr std::size_t kOuter = 4, kMiddle = 5, kInner = 6;
  for (std::size_t workers = 1; workers <= 4; ++workers) {
    u::ThreadPool pool(workers);
    for (int rep = 0; rep < 100; ++rep) {
      std::vector<std::atomic<int>> hits(kOuter * kMiddle * kInner);
      pool.run_indexed(kOuter, [&](std::size_t a) {
        pool.run_indexed(kMiddle, [&](std::size_t b) {
          pool.run_indexed(kInner, [&](std::size_t c) {
            ++hits[(a * kMiddle + b) * kInner + c];
          });
        });
      });
      for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1)
            << "workers " << workers << ", rep " << rep << ", index " << i;
    }
  }
}

// Two threads drive batches through one pool at once; neither waits for
// the other's batch to close, and each sees only its own tasks.
TEST(ThreadPoolNested, ConcurrentCallersShareOnePool) {
  u::ThreadPool pool(3);
  constexpr std::size_t kCount = 40;
  constexpr int kRounds = 200;
  auto drive = [&pool](std::vector<int>& totals) {
    for (int round = 0; round < kRounds; ++round) {
      std::vector<std::atomic<int>> hits(kCount);
      pool.run_indexed(kCount, [&](std::size_t i) { ++hits[i]; });
      for (std::size_t i = 0; i < kCount; ++i) totals[i] += hits[i].load();
    }
  };
  std::vector<int> first(kCount, 0), second(kCount, 0);
  std::thread other([&] { drive(second); });
  drive(first);
  other.join();
  EXPECT_EQ(first, std::vector<int>(kCount, kRounds));
  EXPECT_EQ(second, std::vector<int>(kCount, kRounds));
}

// A nested batch's failure reaches the task that opened it, as that
// batch's error list; the outer batch and its other tasks never see it.
TEST(ThreadPoolNested, NestedErrorStaysWithTheNestedCaller) {
  u::ThreadPool pool(3);
  constexpr std::size_t kOuter = 8, kInner = 10;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  std::vector<std::vector<std::size_t>> nested_errors(kOuter);
  const auto outer_errors =
      pool.run_indexed_collect(kOuter, [&](std::size_t a) {
        const auto errors =
            pool.run_indexed_collect(kInner, [&](std::size_t b) {
              ++hits[a * kInner + b];
              if (a == 3 && (b == 7 || b == 2))
                throw std::runtime_error(std::to_string(b));
            });
        for (const auto& e : errors) nested_errors[a].push_back(e.index);
        if (a == 5) {
          // The rethrowing form hands the nested caller the lowest index.
          try {
            pool.run_indexed(kInner, [](std::size_t b) {
              if (b == 4 || b == 8) throw std::runtime_error(std::to_string(b));
            });
            ADD_FAILURE() << "nested run_indexed did not throw";
          } catch (const std::runtime_error& ex) {
            EXPECT_STREQ(ex.what(), "4");
          }
        }
      });
  EXPECT_TRUE(outer_errors.empty());
  for (std::size_t a = 0; a < kOuter; ++a) {
    const std::vector<std::size_t> expected =
        a == 3 ? std::vector<std::size_t>{2, 7} : std::vector<std::size_t>{};
    EXPECT_EQ(nested_errors[a], expected) << a;
  }
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

// current() names the pool whose task is running — on the caller and on
// the workers alike — is null everywhere else, and a nested call on
// another pool restores it on return.
TEST(ThreadPoolNested, CurrentNamesThePoolRunningTheTask) {
  EXPECT_EQ(u::ThreadPool::current(), nullptr);
  u::ThreadPool pool(3), other(2);
  constexpr std::size_t kCount = 64;
  std::vector<u::ThreadPool*> seen(kCount, nullptr), nested(kCount, nullptr),
      after(kCount, nullptr);
  std::vector<std::thread::id> ran_on(kCount);
  pool.run_indexed(kCount, [&](std::size_t i) {
    seen[i] = u::ThreadPool::current();
    ran_on[i] = std::this_thread::get_id();
    other.run_indexed(2, [&](std::size_t j) {
      if (j == 0) nested[i] = u::ThreadPool::current();
    });
    after[i] = u::ThreadPool::current();
  });
  EXPECT_EQ(u::ThreadPool::current(), nullptr);
  EXPECT_EQ(ran_on[0], std::this_thread::get_id());
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(seen[i], &pool) << i;
    EXPECT_EQ(nested[i], &other) << i;
    EXPECT_EQ(after[i], &pool) << i;
  }
  // A worker's own thread keeps naming its pool between batches.
  std::atomic<int> on_workers{0};
  std::atomic<int> named{0};
  const std::thread::id caller = std::this_thread::get_id();
  while (on_workers.load() == 0) {
    pool.run_indexed(kCount, [&](std::size_t) {
      if (std::this_thread::get_id() == caller) return;
      ++on_workers;
      if (u::ThreadPool::current() == &pool) ++named;
    });
  }
  EXPECT_EQ(named.load(), on_workers.load());
  // A thread that runs no task of any pool names none.
  std::thread([] { EXPECT_EQ(u::ThreadPool::current(), nullptr); }).join();
}

TEST(ParallelForIndexedCollect, SerialPathMirrorsPoolPath) {
  // The inline path must also keep going past a throwing index, so the
  // pooled and serial runs leave identical side effects and error lists.
  auto run = [](u::ThreadPool* pool) {
    std::vector<int> hits(10, 0);
    const auto errors =
        u::parallel_for_indexed_collect(pool, hits.size(), [&](std::size_t i) {
          hits[i] = 1;
          if (i % 4 == 1) throw std::runtime_error("boom");
        });
    std::vector<std::size_t> indices;
    for (const auto& e : errors) indices.push_back(e.index);
    return std::make_pair(hits, indices);
  };
  const auto serial = run(nullptr);
  EXPECT_EQ(serial.first, std::vector<int>(10, 1));
  EXPECT_EQ(serial.second, (std::vector<std::size_t>{1, 5, 9}));
  u::ThreadPool pool(4);
  EXPECT_EQ(run(&pool), serial);
}

TEST(ParallelForIndexedCollect, NullPoolRunsInlineInIndexOrder) {
  std::vector<std::size_t> order;
  const auto errors = u::parallel_for_indexed_collect(
      nullptr, 6, [&](std::size_t i) { order.push_back(i); });
  EXPECT_TRUE(errors.empty());
  std::vector<std::size_t> expected(6);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(ParallelForIndexedCollect, SingleElementRunsInlineEvenWithPool) {
  // A singleton is a one-task batch of the pool: the caller claims index 0
  // before any worker can, so the task runs on the calling thread, and as
  // a task of the pool, so it could split its own parts across it.
  u::ThreadPool pool(2);
  std::size_t seen = 99;
  std::thread::id ran_on;
  u::ThreadPool* ran_in = nullptr;
  const auto errors = u::parallel_for_indexed_collect(
      &pool, 1, [&](std::size_t i) {
        seen = i;
        ran_on = std::this_thread::get_id();
        ran_in = u::ThreadPool::current();
      });
  EXPECT_TRUE(errors.empty());
  EXPECT_EQ(seen, 0u);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(ran_in, &pool);
  EXPECT_EQ(u::ThreadPool::current(), nullptr);
}

TEST(ParallelForIndexedCollect, ZeroCountRunsNothing) {
  u::ThreadPool pool(2);
  for (u::ThreadPool* p : {static_cast<u::ThreadPool*>(nullptr), &pool}) {
    bool ran = false;
    const auto errors =
        u::parallel_for_indexed_collect(p, 0, [&](std::size_t) { ran = true; });
    EXPECT_TRUE(errors.empty());
    EXPECT_FALSE(ran);
  }
}

}  // namespace
