#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <numeric>
#include <vector>

#include "common/thread.h"

namespace kanon {
namespace {

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.capacity(), 0u);
  int ran = 0;
  pool.Submit([&] { ++ran; });  // no workers: must execute before return
  EXPECT_EQ(ran, 1);
}

TEST(ThreadPoolTest, ExecutesEverySubmittedTask) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 1000; ++i) {
      pool.Submit([&] { ran.fetch_add(1); });
    }
  }  // destructor drains
  EXPECT_EQ(ran.load(), 1000);
}

TEST(ThreadPoolTest, SubmitAfterShutdownRunsInline) {
  ThreadPool pool(2);
  pool.Shutdown();
  int ran = 0;
  pool.Submit([&] { ++ran; });
  EXPECT_EQ(ran, 1);
}

TEST(ThreadPoolTest, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) pool.Submit([&] { ran.fetch_add(1); });
  pool.Shutdown();
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 100);
}

// Tasks start in the order they were submitted: with one worker held on
// its first task, the rest queue up and then run oldest first.
TEST(ThreadPoolTest, QueuedTasksRunOldestFirst) {
  std::vector<int> order;
  {
    ThreadPool pool(1);
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    pool.Submit([released] { released.wait(); });
    for (int i = 0; i < 8; ++i) {
      pool.Submit([&order, i] { order.push_back(i); });
    }
    release.set_value();
  }  // destructor drains
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(ThreadPoolTest, ParallelForVisitsEachIndexOnce) {
  ThreadPool pool(3);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForWithZeroWorkersAndTrivialSizes) {
  ThreadPool pool(0);
  size_t sum = 0;
  pool.ParallelFor(0, [&](size_t) { ++sum; });
  EXPECT_EQ(sum, 0u);
  pool.ParallelFor(1, [&](size_t i) { sum += i + 1; });
  EXPECT_EQ(sum, 1u);
  pool.ParallelFor(100, [&](size_t i) { sum += i; });
  EXPECT_EQ(sum, 1u + 99 * 100 / 2);
}

TEST(ThreadPoolTest, SequentialParallelForsReusePool) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(257, [&](size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 256u * 257 / 2);
  }
}

// TSan stress: many producer threads race Submit against each other, the
// workers' pops, and a concurrent Shutdown. The execution guarantee
// (every accepted task runs exactly once) must hold through the race.
TEST(ThreadPoolStressTest, RacingSubmitStealShutdown) {
  for (int round = 0; round < 20; ++round) {
    auto pool = std::make_unique<ThreadPool>(4);
    std::atomic<int> ran{0};
    std::atomic<int> submitted{0};
    std::vector<JoinableThread> producers;
    for (int p = 0; p < 4; ++p) {
      producers.emplace_back([&] {
        for (int i = 0; i < 500; ++i) {
          pool->Submit([&] { ran.fetch_add(1); });
          submitted.fetch_add(1);
        }
      });
    }
    // Shut down while producers are mid-stream: late Submits run inline.
    pool->Shutdown();
    for (auto& t : producers) t.Join();
    pool.reset();
    EXPECT_EQ(ran.load(), submitted.load());
    EXPECT_EQ(submitted.load(), 2000);
  }
}

// TSan stress: concurrent ParallelFor regions back to back with tasks that
// contend on shared atomics — exercises the completion handshake.
TEST(ThreadPoolStressTest, ParallelForCompletionHandshake) {
  ThreadPool pool(8);
  for (int round = 0; round < 100; ++round) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(64, [&](size_t i) { sum.fetch_add(i + 1); });
    ASSERT_EQ(sum.load(), 64u * 65 / 2);
  }
}

}  // namespace
}  // namespace kanon
