#include "index/buffer_tree.h"

#include <gtest/gtest.h>

#include <set>

#include "common/random.h"

namespace kanon {
namespace {

struct Rig {
  explicit Rig(size_t dim, size_t pool_frames = 64, size_t page_size = 1024)
      : pager(page_size), pool(&pager, pool_frames) {
    config.min_leaf = 3;
    config.max_leaf = 9;
    config.max_fanout = 4;
    tree = std::make_unique<BufferTree>(dim, config, buffer_pages, &pool);
  }

  MemPager pager;
  BufferPool pool;
  RTreeConfig config;
  size_t buffer_pages = 2;
  std::unique_ptr<BufferTree> tree;
};

void InsertRandom(BufferTree* tree, size_t n, uint64_t seed, size_t dim) {
  Rng rng(seed);
  std::vector<double> p(dim);
  for (size_t i = 0; i < n; ++i) {
    for (auto& v : p) v = rng.UniformDouble(0.0, 1000.0);
    ASSERT_TRUE(tree->Insert(p, i, static_cast<int32_t>(i % 5)).ok());
  }
}

TEST(BufferTreeTest, SmallLoadStaysLeafRoot) {
  Rig rig(2);
  InsertRandom(rig.tree.get(), 5, 1, 2);
  ASSERT_TRUE(rig.tree->Flush().ok());
  EXPECT_EQ(rig.tree->size(), 5u);
  EXPECT_EQ(rig.tree->height(), 1);
  EXPECT_TRUE(rig.tree->CheckInvariants().ok());
}

TEST(BufferTreeTest, BulkLoadKeepsAllRecordsAndInvariants) {
  Rig rig(3);
  InsertRandom(rig.tree.get(), 5000, 2, 3);
  ASSERT_TRUE(rig.tree->Flush().ok());
  EXPECT_EQ(rig.tree->size(), 5000u);
  ASSERT_TRUE(rig.tree->CheckInvariants().ok());
}

// Regression: ReplaceChild used to resolve the parent's overflow itself
// while ResolveOverflow's loop also advanced to that parent, so ≥2-level
// split cascades walked freed nodes. Minimum fanout forces deep cascades.
TEST(BufferTreeTest, CascadingSplitsKeepInvariants) {
  Rig rig(2);
  rig.config.min_leaf = 2;
  rig.config.max_leaf = 5;
  rig.config.max_fanout = 2;
  rig.tree = std::make_unique<BufferTree>(2, rig.config, rig.buffer_pages,
                                          &rig.pool);
  InsertRandom(rig.tree.get(), 2000, 7, 2);
  ASSERT_TRUE(rig.tree->Flush().ok());
  EXPECT_EQ(rig.tree->size(), 2000u);
  ASSERT_TRUE(rig.tree->CheckInvariants().ok());
  EXPECT_GT(rig.tree->height(), 5);
}

TEST(BufferTreeTest, LeavesPartitionRecordsExactlyOnce) {
  Rig rig(2);
  InsertRandom(rig.tree.get(), 3000, 3, 2);
  ASSERT_TRUE(rig.tree->Flush().ok());
  std::set<uint64_t> seen;
  for (const BufferNode* leaf : rig.tree->OrderedLeaves()) {
    ASSERT_TRUE(rig.tree
                    ->ScanLeaf(leaf,
                               [&](uint64_t rid, int32_t,
                                   std::span<const double>) {
                                 EXPECT_TRUE(seen.insert(rid).second);
                               })
                    .ok());
  }
  EXPECT_EQ(seen.size(), 3000u);
}

TEST(BufferTreeTest, LeafOccupancyRespectsBounds) {
  Rig rig(2);
  InsertRandom(rig.tree.get(), 4000, 4, 2);
  ASSERT_TRUE(rig.tree->Flush().ok());
  for (const BufferNode* leaf : rig.tree->OrderedLeaves()) {
    EXPECT_GE(leaf->record_count, rig.config.min_leaf);
    EXPECT_LE(leaf->record_count, rig.config.max_leaf);
  }
}

TEST(BufferTreeTest, DuplicatePointsMakeOverfullLeafNotCrash) {
  Rig rig(2);
  const double p[] = {3.0, 4.0};
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(rig.tree->Insert({p, 2}, i, 0).ok());
  }
  ASSERT_TRUE(rig.tree->Flush().ok());
  EXPECT_EQ(rig.tree->size(), 300u);
  EXPECT_TRUE(rig.tree->CheckInvariants().ok());
}

TEST(BufferTreeTest, TinyBufferPoolStillCorrectJustMoreIo) {
  // 9-frame pool (the minimum workable) versus a large pool: identical
  // trees record-wise, the small pool pays more I/O.
  Rig small(2, /*pool_frames=*/9);
  Rig large(2, /*pool_frames=*/4096);
  InsertRandom(small.tree.get(), 2000, 5, 2);
  InsertRandom(large.tree.get(), 2000, 5, 2);
  ASSERT_TRUE(small.tree->Flush().ok());
  ASSERT_TRUE(large.tree->Flush().ok());
  EXPECT_EQ(small.tree->size(), 2000u);
  EXPECT_TRUE(small.tree->CheckInvariants().ok());
  EXPECT_GT(small.pager.stats().total(), large.pager.stats().total());
}

TEST(BufferTreeTest, MbrsCoverAllPoints) {
  Rig rig(2);
  InsertRandom(rig.tree.get(), 1000, 6, 2);
  ASSERT_TRUE(rig.tree->Flush().ok());
  // Invariant check validates leaf MBRs; here check the root box too.
  const Mbr& root_mbr = rig.tree->root()->mbr;
  for (const BufferNode* leaf : rig.tree->OrderedLeaves()) {
    EXPECT_TRUE(root_mbr.ContainsBox(leaf->mbr));
  }
}

TEST(BufferTreeTest, NodesAtDepthConserveRecordCounts) {
  Rig rig(2);
  InsertRandom(rig.tree.get(), 3000, 7, 2);
  ASSERT_TRUE(rig.tree->Flush().ok());
  for (int d = 0; d < rig.tree->height(); ++d) {
    size_t total = 0;
    for (const BufferNode* n : rig.tree->NodesAtDepth(d)) {
      total += n->record_count;
    }
    EXPECT_EQ(total, 3000u);
  }
}

TEST(BufferTreeTest, MatchesTupleLoadedTreeRecordSet) {
  // The buffer tree must index the same multiset of records as direct
  // inserts would — only the structure may differ.
  Rig rig(2);
  Rng rng(8);
  std::set<uint64_t> inserted;
  std::vector<double> p(2);
  for (size_t i = 0; i < 1500; ++i) {
    for (auto& v : p) v = rng.UniformDouble(0, 100);
    ASSERT_TRUE(rig.tree->Insert(p, i, 0).ok());
    inserted.insert(i);
  }
  ASSERT_TRUE(rig.tree->Flush().ok());
  std::set<uint64_t> indexed;
  for (const BufferNode* leaf : rig.tree->OrderedLeaves()) {
    ASSERT_TRUE(
        rig.tree
            ->ScanLeaf(leaf, [&](uint64_t rid, int32_t,
                                 std::span<const double>) {
              indexed.insert(rid);
            })
            .ok());
  }
  EXPECT_EQ(indexed, inserted);
}

TEST(BufferTreeTest, PaperExampleScaleConfiguration) {
  // The paper's Figs 2-3 walk through a buffer tree whose pages hold three
  // records and whose node buffers hold two pages. Reproduce that scale:
  // tiny pages, buffer_pages=2, and verify the machinery behaves (records
  // block in buffers, clears cascade, restructuring splits bottom-up).
  RecordCodec codec(2);
  const size_t page_size =
      RecordPageView::kHeaderSize + 3 * codec.record_size();
  MemPager pager(page_size);
  BufferPool pool(&pager, 64);
  RTreeConfig config;
  config.min_leaf = 1;
  config.max_leaf = 3;  // "a page has a maximum capacity of three records"
  config.max_fanout = 3;
  const size_t buffer_pages = 2;  // "node buffers contain at most two pages"
  BufferTree tree(2, config, buffer_pages, &pool);
  Rng rng(30);
  for (size_t i = 0; i < 200; ++i) {
    const double p[] = {rng.UniformDouble(0, 100),
                        rng.UniformDouble(0, 100)};
    ASSERT_TRUE(tree.Insert({p, 2}, i, 0).ok());
  }
  ASSERT_TRUE(tree.Flush().ok());
  EXPECT_EQ(tree.size(), 200u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  EXPECT_GE(tree.height(), 3);  // deep tree at this tiny fanout
  for (const BufferNode* leaf : tree.OrderedLeaves()) {
    EXPECT_LE(leaf->record_count, 3u);
  }
}

TEST(BufferTreeTest, LeafConstraintHonoredDuringBulkLoad) {
  Rig rig(1);
  rig.config.leaf_admissible = [](std::span<const int32_t> codes) {
    std::set<int32_t> distinct(codes.begin(), codes.end());
    return distinct.size() >= 2;
  };
  rig.tree = std::make_unique<BufferTree>(1, rig.config, rig.buffer_pages,
                                          &rig.pool);
  Rng rng(9);
  for (int i = 0; i < 400; ++i) {
    const double x = rng.UniformDouble(0, 1000);
    const double p[] = {x};
    ASSERT_TRUE(rig.tree->Insert({p, 1}, i, x < 500 ? 0 : 1).ok());
  }
  ASSERT_TRUE(rig.tree->Flush().ok());
  for (const BufferNode* leaf : rig.tree->OrderedLeaves()) {
    std::set<int32_t> distinct;
    ASSERT_TRUE(rig.tree
                    ->ScanLeaf(leaf,
                               [&](uint64_t, int32_t sens,
                                   std::span<const double>) {
                                 distinct.insert(sens);
                               })
                    .ok());
    EXPECT_GE(distinct.size(), 2u);
  }
}

}  // namespace
}  // namespace kanon
