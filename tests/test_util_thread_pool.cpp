#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <numeric>
#include <atomic>
#include <stdexcept>
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
  // n <= 1 short-circuits: no pool dispatch for singletons, so the task
  // runs on the calling thread.
  u::ThreadPool pool(2);
  std::size_t seen = 99;
  std::thread::id ran_on;
  const auto errors = u::parallel_for_indexed_collect(
      &pool, 1, [&](std::size_t i) {
        seen = i;
        ran_on = std::this_thread::get_id();
      });
  EXPECT_TRUE(errors.empty());
  EXPECT_EQ(seen, 0u);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
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
