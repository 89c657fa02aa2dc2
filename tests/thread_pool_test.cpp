#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace dpr::util {
namespace {

TEST(ThreadPool, ResolveMapsZeroToHardwareConcurrency) {
  EXPECT_GE(ThreadPool::resolve(0), 1u);
  EXPECT_EQ(ThreadPool::resolve(1), 1u);
  EXPECT_EQ(ThreadPool::resolve(6), 6u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&hits](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(64,
                                 [](std::size_t i) {
                                   if (i == 13) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // The pool must stay usable after an exception.
  std::atomic<int> sum{0};
  pool.parallel_for(10, [&sum](std::size_t i) {
    sum.fetch_add(static_cast<int>(i));
  });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // Outer iterations run on pool workers and issue their own loops on the
  // same pool; caller participation guarantees forward progress.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(8, [&total](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPool, SkewedLoadCompletes) {
  // One iteration is far heavier than the rest; the loop still completes
  // and covers everything (the other helpers drain the shared cursor).
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  pool.parallel_for(64, [&sum](std::size_t i) {
    long local = 0;
    const long spins = i == 0 ? 200000 : 100;
    for (long k = 0; k < spins; ++k) local += k % 7;
    sum.fetch_add(local > 0 ? 1 : 1, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 64);
}

TEST(ThreadPool, CreateRunDestroyUnderContentionNeverHangs) {
  // Shutdown races each worker's last wait-predicate check. A stop flag
  // set without the queue mutex could land between a worker's check and
  // its wait, so the worker missed the notify and join() never returned.
  // Several threads cycle short-lived pools to hit that window often.
  constexpr int kCyclers = 4;
  constexpr int kCycles = 2000;
  constexpr int kLoops = 4;
  constexpr std::size_t kN = 64;
  std::atomic<long> total{0};
  std::vector<std::thread> cyclers;
  for (int t = 0; t < kCyclers; ++t) {
    cyclers.emplace_back([&total] {
      for (int c = 0; c < kCycles; ++c) {
        ThreadPool pool(8);
        for (int loop = 0; loop < kLoops; ++loop) {
          pool.parallel_for(kN, [&total](std::size_t) {
            total.fetch_add(1, std::memory_order_relaxed);
          });
        }
      }
    });
  }
  for (auto& cycler : cyclers) cycler.join();
  EXPECT_EQ(total.load(), long{kCyclers} * kCycles * kLoops * long{kN});
}

}  // namespace
}  // namespace dpr::util
