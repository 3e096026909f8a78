#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <vector>

#include "common/thread.h"

namespace kanon {
namespace {

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
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

}  // namespace
}  // namespace kanon
