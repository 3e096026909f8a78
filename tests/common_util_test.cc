#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/sysinfo.h"
#include "common/thread.h"
#include "common/timer.h"
#include "storage/spill_file.h"

namespace kanon {
namespace {

TEST(TimerTest, MeasuresElapsedTime) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double ms = t.ElapsedMillis();
  EXPECT_GE(ms, 15.0);
  EXPECT_LT(ms, 2000.0);
  EXPECT_NEAR(t.ElapsedSeconds() * 1000.0, t.ElapsedMillis(), 5.0);
}

TEST(TimerTest, RestartResets) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  t.Restart();
  EXPECT_LT(t.ElapsedMillis(), 15.0);
}

TEST(SysinfoTest, QueryProducesPlausibleValues) {
  const SystemInfo info = QuerySystemInfo();
  EXPECT_FALSE(info.compiler.empty());
  EXPECT_GT(info.memory_mb, 0);          // Linux /proc is present here
  EXPECT_GT(info.logical_cores, 0);
  const std::string table = FormatSystemInfoTable(info);
  EXPECT_NE(table.find("Compiler"), std::string::npos);
  EXPECT_NE(table.find("Memory"), std::string::npos);
}

TEST(JoinableThreadTest, JoinsOnDestruction) {
  std::atomic<bool> ran{false};
  {
    JoinableThread t([&] { ran.store(true); });
  }  // destructor joins
  EXPECT_TRUE(ran.load());
}

TEST(RecordBatchTest, AppendRowAndClear) {
  RecordBatch batch(3);
  const double a[] = {1, 2, 3};
  const double b[] = {4, 5, 6};
  batch.Append(10, -1, {a, 3});
  batch.Append(20, -2, {b, 3});
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.row(1)[0], 4.0);
  EXPECT_EQ(batch.rids[0], 10u);
  EXPECT_EQ(batch.sensitive[1], -2);
  batch.Clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_TRUE(batch.values.empty());
}

TEST(PageChainTest, AppendBatchExactPageBoundary) {
  // A batch sized exactly at multiples of the page capacity must not leave
  // a dangling empty page or lose the boundary record.
  MemPager pager(512);
  BufferPool pool(&pager, 8);
  RecordCodec codec(2);
  RecordPageView probe(nullptr, 512, &codec);
  const size_t per_page = probe.capacity();
  for (const size_t n : {per_page, 2 * per_page, 2 * per_page + 1}) {
    PageChain chain(&pool, &codec);
    RecordBatch batch(2);
    for (size_t i = 0; i < n; ++i) {
      const double v[] = {static_cast<double>(i), 0.0};
      batch.Append(i, 0, {v, 2});
    }
    ASSERT_TRUE(chain.AppendBatch(batch).ok());
    EXPECT_EQ(chain.record_count(), n);
    size_t seen = 0;
    ASSERT_TRUE(chain
                    .Scan([&](uint64_t rid, int32_t,
                              std::span<const double>) {
                      EXPECT_EQ(rid, seen++);
                    })
                    .ok());
    EXPECT_EQ(seen, n);
    chain.Clear();
  }
}

TEST(PageChainTest, MixedAppendAndBatchInterleave) {
  MemPager pager(512);
  BufferPool pool(&pager, 8);
  RecordCodec codec(1);
  PageChain chain(&pool, &codec);
  RecordBatch batch(1);
  size_t next = 0;
  for (int round = 0; round < 5; ++round) {
    const double v[] = {static_cast<double>(next)};
    ASSERT_TRUE(chain.Append(next, 0, {v, 1}).ok());
    ++next;
    batch.Clear();
    for (int i = 0; i < 17; ++i) {
      const double w[] = {static_cast<double>(next)};
      batch.Append(next, 0, {w, 1});
      ++next;
    }
    ASSERT_TRUE(chain.AppendBatch(batch).ok());
  }
  size_t seen = 0;
  ASSERT_TRUE(chain
                  .Scan([&](uint64_t rid, int32_t, std::span<const double>) {
                    EXPECT_EQ(rid, seen++);
                  })
                  .ok());
  EXPECT_EQ(seen, next);
}

}  // namespace
}  // namespace kanon
