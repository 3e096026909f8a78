#include "storage/external_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/env.h"
#include "common/random.h"
#include "common/thread.h"
#include "index/bulk_load.h"

namespace kanon {
namespace {

struct SortRig {
  explicit SortRig(size_t pool_frames = 64, size_t page_size = 1024)
      : pager(page_size), pool(&pager, pool_frames) {}
  MemPager pager;
  BufferPool pool;
};

TEST(PageChainCursorTest, WalksAllRecordsInOrder) {
  SortRig rig;
  RecordCodec codec(2);
  PageChain chain(&rig.pool, &codec);
  for (size_t i = 0; i < 100; ++i) {
    const double v[] = {static_cast<double>(i), static_cast<double>(i * 2)};
    ASSERT_TRUE(chain.Append(i, static_cast<int32_t>(i), {v, 2}).ok());
  }
  size_t seen = 0;
  PageChainCursor cursor(&chain);
  while (cursor.valid()) {
    EXPECT_EQ(cursor.rid(), seen);
    EXPECT_EQ(cursor.values()[1], 2.0 * seen);
    ++seen;
    ASSERT_TRUE(cursor.Next().ok());
  }
  EXPECT_EQ(seen, 100u);
}

TEST(PageChainCursorTest, EmptyChainIsImmediatelyInvalid) {
  SortRig rig;
  RecordCodec codec(1);
  PageChain chain(&rig.pool, &codec);
  PageChainCursor cursor(&chain);
  EXPECT_FALSE(cursor.valid());
}

TEST(ExternalSorterTest, InMemoryRunSortsCorrectly) {
  SortRig rig;
  ExternalSorter sorter(1, /*run_records=*/1000, &rig.pool);
  Rng rng(1);
  for (size_t i = 0; i < 100; ++i) {
    const double v[] = {static_cast<double>(i)};
    ASSERT_TRUE(sorter.Add(rng.Next(), i, 0, {v, 1}).ok());
  }
  uint64_t prev = 0;
  size_t count = 0;
  ASSERT_TRUE(sorter
                  .Finish([&](uint64_t key, uint64_t, int32_t,
                              std::span<const double>) {
                    EXPECT_GE(key, prev);
                    prev = key;
                    ++count;
                  })
                  .ok());
  EXPECT_EQ(count, 100u);
}

TEST(ExternalSorterTest, MultiRunMergePreservesOrderAndMultiset) {
  SortRig rig;
  // Tiny runs force many spills and a real merge.
  ExternalSorter sorter(2, /*run_records=*/64, &rig.pool);
  Rng rng(2);
  std::multiset<uint64_t> keys;
  const size_t n = 5000;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = rng.Uniform(1000);  // duplicates guaranteed
    keys.insert(key);
    const double v[] = {static_cast<double>(key), static_cast<double>(i)};
    ASSERT_TRUE(sorter.Add(key, i, static_cast<int32_t>(i % 3), {v, 2}).ok());
  }
  EXPECT_GT(sorter.run_count(), 10u);
  std::multiset<uint64_t> out_keys;
  std::set<uint64_t> out_rids;
  uint64_t prev = 0;
  ASSERT_TRUE(sorter
                  .Finish([&](uint64_t key, uint64_t rid, int32_t,
                              std::span<const double> values) {
                    EXPECT_GE(key, prev);
                    prev = key;
                    // Payload must ride along unchanged.
                    EXPECT_EQ(values[0], static_cast<double>(key));
                    out_keys.insert(key);
                    EXPECT_TRUE(out_rids.insert(rid).second);
                    ++prev, --prev;
                  })
                  .ok());
  EXPECT_EQ(out_keys, keys);
  EXPECT_EQ(out_rids.size(), n);
}

TEST(ExternalSorterTest, MultiPassMergeUnderTinyPool) {
  // Pool so small that the run count exceeds the merge fan-in: forces the
  // intermediate-pass path.
  SortRig rig(/*pool_frames=*/10, /*page_size=*/512);
  ExternalSorter sorter(1, /*run_records=*/32, &rig.pool);
  Rng rng(3);
  const size_t n = 3000;
  for (size_t i = 0; i < n; ++i) {
    const double v[] = {static_cast<double>(i)};
    ASSERT_TRUE(sorter.Add(rng.Next(), i, 0, {v, 1}).ok());
  }
  ASSERT_GT(sorter.run_count(), rig.pool.capacity());
  uint64_t prev = 0;
  size_t count = 0;
  ASSERT_TRUE(sorter
                  .Finish([&](uint64_t key, uint64_t, int32_t,
                              std::span<const double>) {
                    EXPECT_GE(key, prev);
                    prev = key;
                    ++count;
                  })
                  .ok());
  EXPECT_EQ(count, n);
}

TEST(ExternalSorterTest, ThreeFramePoolMergesPairwise) {
  // The fan-in is the pool capacity minus headroom; a pool that small
  // must fall back to pairwise merges, not to one merge of every run.
  SortRig rig(/*pool_frames=*/3, /*page_size=*/512);
  ExternalSorter sorter(1, /*run_records=*/8, &rig.pool);
  for (size_t i = 0; i < 400; ++i) {
    const double v[] = {static_cast<double>(i)};
    ASSERT_TRUE(sorter.Add((i * 7919) % 401, i, 0, {v, 1}).ok());
  }
  size_t emitted = 0;
  uint64_t prev = 0;
  const Status finish = sorter.Finish(
      [&](uint64_t key, uint64_t, int32_t, std::span<const double>) {
        EXPECT_GE(key, prev);
        prev = key;
        ++emitted;
      });
  ASSERT_TRUE(finish.ok()) << finish;
  EXPECT_EQ(emitted, 400u);
}

TEST(ExternalSorterTest, ExtremeKeysRoundTrip) {
  SortRig rig;
  ExternalSorter sorter(1, 4, &rig.pool);
  const uint64_t keys[] = {0, 1, UINT64_MAX, UINT64_MAX - 1, 1ull << 63,
                           (1ull << 52) + 3};
  const double v[] = {0.0};
  for (size_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(sorter.Add(keys[i], i, 0, {v, 1}).ok());
  }
  std::vector<uint64_t> out;
  ASSERT_TRUE(sorter
                  .Finish([&](uint64_t key, uint64_t, int32_t,
                              std::span<const double>) {
                    out.push_back(key);
                  })
                  .ok());
  std::vector<uint64_t> expect(keys, keys + 6);
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(out, expect);  // bit-exact round trip through the double slot
}

TEST(CurveBulkLoadExternalTest, MatchesInMemoryLoaderQuality) {
  Dataset data(Schema::Numeric(3));
  Rng rng(4);
  for (size_t i = 0; i < 3000; ++i) {
    data.Append({rng.UniformDouble(0, 100), rng.UniformDouble(0, 100),
                 rng.UniformDouble(0, 100)},
                static_cast<int32_t>(i % 4));
  }
  SortLoadConfig config{.min_size = 5, .target_size = 15, .grid_bits = 8};
  const auto in_memory = CurveBulkLoad(data, CurveOrder::kHilbert, config);

  SortRig rig(/*pool_frames=*/128, /*page_size=*/1024);
  auto external = CurveBulkLoadExternal(data, CurveOrder::kHilbert, config,
                                        &rig.pool, /*run_records=*/256);
  ASSERT_TRUE(external.ok());
  EXPECT_GT(rig.pager.stats().total(), 0u);  // really went through pages

  // Same record coverage and a comparable group structure.
  std::set<RecordId> covered;
  double ext_volume = 0.0, mem_volume = 0.0;
  for (const auto& g : *external) {
    EXPECT_GE(g.rids.size(), config.min_size);
    for (RecordId r : g.rids) EXPECT_TRUE(covered.insert(r).second);
    ext_volume += g.mbr.Volume();
  }
  EXPECT_EQ(covered.size(), data.num_records());
  for (const auto& g : in_memory) mem_volume += g.mbr.Volume();
  EXPECT_LT(ext_volume, mem_volume * 1.5 + 1e-9);
}

TEST(ExternalSorterTest, AbandonedSortReleasesSpillPages) {
  // An interrupted run (sorter destroyed before Finish) must hand its
  // spill pages back: a second identical sort reuses them instead of
  // growing the backing store.
  SortRig rig(/*pool_frames=*/16, /*page_size=*/512);
  auto spill = [&] {
    ExternalSorter sorter(1, /*run_records=*/32, &rig.pool);
    Rng rng(5);
    for (size_t i = 0; i < 500; ++i) {
      const double v[] = {static_cast<double>(i)};
      ASSERT_TRUE(sorter.Add(rng.Next(), i, 0, {v, 1}).ok());
    }
    ASSERT_GT(sorter.run_count(), 0u);
    // No Finish: the sorter goes out of scope mid-sort.
  };
  spill();
  ASSERT_TRUE(rig.pool.FlushAll().ok());
  const size_t high_water = rig.pager.num_pages();
  ASSERT_GT(high_water, 0u);
  spill();
  ASSERT_TRUE(rig.pool.FlushAll().ok());
  EXPECT_EQ(rig.pager.num_pages(), high_water);
}

TEST(ExternalSorterTest, CorruptSpillPageSurfacesStatusNotCrash) {
  // A spill page that fails its checksum on read-back must surface as a
  // Corruption Status from Finish — not abort the process. The fault env
  // corrupts the first pager read; the tiny pool guarantees spill pages
  // are evicted during Add, so that first read happens under the merge.
  FaultInjectionOptions fo;
  fo.corrupt_nth_read = 1;
  FaultInjectionEnv env(Env::Default(), fo);
  auto pager = FilePager::Create(/*page_size=*/512, /*dir=*/"", &env);
  ASSERT_TRUE(pager.ok());
  BufferPool pool(pager->get(), /*capacity_frames=*/4);
  ExternalSorter sorter(2, /*run_records=*/32, &pool);
  Rng rng(6);
  for (size_t i = 0; i < 96; ++i) {
    const double v[] = {rng.UniformDouble(0, 1), rng.UniformDouble(0, 1)};
    ASSERT_TRUE(sorter.Add(rng.Next(), i, 0, {v, 2}).ok());
  }
  ASSERT_GE(sorter.run_count(), 3u);
  const Status finish = sorter.Finish(
      [](uint64_t, uint64_t, int32_t, std::span<const double>) {});
  ASSERT_FALSE(finish.ok());
  EXPECT_EQ(finish.code(), StatusCode::kCorruption) << finish;
  EXPECT_GE(env.injected(), 1u);
}

TEST(ParallelMergeTest, ConcurrentSortersShareOnePager) {
  // Several sorters on concurrent threads, each over a private pool on
  // one shared (thread-safe) pager. Run under TSan in CI.
  MemPager pager(512);
  std::vector<size_t> counts(4, 0);
  {
    std::vector<JoinableThread> sorters;
    for (size_t s = 0; s < counts.size(); ++s) {
      sorters.emplace_back([&pager, &counts, s] {
        BufferPool pool(&pager, 16);
        ExternalSorter sorter(1, /*run_records=*/32, &pool);
        Rng rng(100 + s);
        for (size_t i = 0; i < 500; ++i) {
          const double v[] = {static_cast<double>(i)};
          ASSERT_TRUE(sorter.Add(rng.Next(), i, 0, {v, 1}).ok());
        }
        uint64_t prev = 0;
        ASSERT_TRUE(sorter
                        .Finish([&](uint64_t key, uint64_t, int32_t,
                                    std::span<const double>) {
                          ASSERT_GE(key, prev);
                          prev = key;
                          ++counts[s];
                        })
                        .ok());
      });
    }
  }  // joins every sorter
  for (size_t s = 0; s < 4; ++s) EXPECT_EQ(counts[s], 500u);
}

TEST(CurveBulkLoadExternalTest, EmptyDataset) {
  Dataset data(Schema::Numeric(2));
  SortRig rig;
  SortLoadConfig config;
  auto groups = CurveBulkLoadExternal(data, CurveOrder::kZOrder, config,
                                      &rig.pool, 16);
  ASSERT_TRUE(groups.ok());
  EXPECT_TRUE(groups->empty());
}

}  // namespace
}  // namespace kanon
