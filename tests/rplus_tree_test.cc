#include "index/rplus_tree.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/random.h"
#include "invariants.h"

namespace kanon {
namespace {

RTreeConfig SmallConfig() {
  RTreeConfig config;
  config.min_leaf = 3;
  config.max_leaf = 9;
  config.max_fanout = 4;
  return config;
}

void InsertRandom(RPlusTree* tree, size_t n, uint64_t seed, size_t dim,
                  std::vector<std::vector<double>>* points = nullptr) {
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> p(dim);
    for (auto& v : p) v = rng.UniformDouble(0.0, 1000.0);
    tree->Insert(p, i, static_cast<int32_t>(i % 5));
    if (points != nullptr) points->push_back(std::move(p));
  }
}

TEST(RPlusTreeTest, EmptyTreeIsALeafRoot) {
  RPlusTree tree(2, SmallConfig());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 1);
  EXPECT_TRUE(tree.root()->is_leaf);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(RPlusTreeTest, InsertBelowCapacityKeepsSingleLeaf) {
  RPlusTree tree(2, SmallConfig());
  InsertRandom(&tree, 9, 1, 2);
  EXPECT_EQ(tree.size(), 9u);
  EXPECT_EQ(tree.height(), 1);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(RPlusTreeTest, OverflowSplitsAndGrowsRoot) {
  RPlusTree tree(2, SmallConfig());
  InsertRandom(&tree, 10, 2, 2);
  EXPECT_EQ(tree.size(), 10u);
  EXPECT_EQ(tree.height(), 2);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(RPlusTreeTest, ManyInsertsKeepInvariants) {
  RPlusTree tree(3, SmallConfig());
  InsertRandom(&tree, 5000, 3, 3);
  EXPECT_EQ(tree.size(), 5000u);
  ASSERT_TRUE(tree.CheckInvariants().ok());
  testutil::ExpectTreeLeafInvariants(tree, SmallConfig().min_leaf);
  const auto stats = tree.ComputeStats();
  EXPECT_GE(stats.min_leaf_size, 3u);
  EXPECT_GT(stats.num_leaves, 300u);
  EXPECT_GT(stats.height, 2);
}

// Regression: with a tiny fanout every leaf split cascades several
// internal levels. ResolveOverflow used to walk back onto a node the
// recursive resolution had already destroyed (a use-after-free that read
// as fanout 0 and went unnoticed without sanitizers).
TEST(RPlusTreeTest, CascadingSplitsKeepInvariants) {
  RTreeConfig config;
  config.min_leaf = 2;
  config.max_leaf = 5;
  config.max_fanout = 2;  // minimum: every internal split overflows parent
  RPlusTree tree(2, config);
  InsertRandom(&tree, 2000, 11, 2);
  EXPECT_EQ(tree.size(), 2000u);
  ASSERT_TRUE(tree.CheckInvariants().ok());
  EXPECT_GT(tree.ComputeStats().height, 5);
}

TEST(RPlusTreeTest, LeavesPartitionAllRecords) {
  RPlusTree tree(2, SmallConfig());
  InsertRandom(&tree, 1000, 4, 2);
  // The shared checker asserts the full partition contract: unique rids,
  // disjoint leaf MBRs, exactly-once coverage, occupancy >= min_leaf.
  testutil::ExpectTreeLeafInvariants(tree, SmallConfig().min_leaf);
}

TEST(RPlusTreeTest, DuplicateHeavyDataLeavesOverfullLeaf) {
  RPlusTree tree(2, SmallConfig());
  const double p[] = {1.0, 2.0};
  for (size_t i = 0; i < 50; ++i) tree.Insert({p, 2}, i, 0);
  // All identical points: unsplittable, single overfull leaf.
  EXPECT_EQ(tree.height(), 1);
  EXPECT_EQ(tree.root()->leaf_size(), 50u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(RPlusTreeTest, SearchRangeFindsExactlyMatchingRecords) {
  RPlusTree tree(2, SmallConfig());
  std::vector<std::vector<double>> points;
  InsertRandom(&tree, 2000, 5, 2, &points);
  const Mbr query = Mbr::FromBounds({100.0, 100.0}, {400.0, 400.0});
  std::vector<uint64_t> got;
  tree.SearchRange(query, &got);
  std::set<uint64_t> expect;
  for (size_t i = 0; i < points.size(); ++i) {
    if (query.ContainsPoint(points[i])) expect.insert(i);
  }
  EXPECT_EQ(std::set<uint64_t>(got.begin(), got.end()), expect);
}

TEST(RPlusTreeTest, InsertsOutsideTheDataRangeKeepInvariants) {
  // The tree is built over the middle of the space, then grows records
  // far below and above it. Regions tile the whole space, so the extreme
  // records route into the boundary leaves and every one stays findable.
  RPlusTree tree(2, SmallConfig());
  Rng rng(21);
  std::vector<std::vector<double>> points;
  for (size_t i = 0; i < 600; ++i) {
    points.push_back(
        {rng.UniformDouble(400, 600), rng.UniformDouble(400, 600)});
  }
  for (size_t i = 0; i < 300; ++i) {
    const double base = i % 2 == 0 ? -500.0 : 1500.0;
    points.push_back({base + rng.UniformDouble(0, 100),
                      base + rng.UniformDouble(0, 100)});
  }
  for (size_t i = 0; i < points.size(); ++i) {
    tree.Insert(points[i], i, static_cast<int32_t>(i % 5));
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  testutil::ExpectTreeLeafInvariants(tree, SmallConfig().min_leaf);
  std::vector<uint64_t> got;
  tree.SearchRange(Mbr::FromBounds({-1000.0, -1000.0}, {2000.0, 2000.0}),
                   &got);
  EXPECT_EQ(std::set<uint64_t>(got.begin(), got.end()).size(),
            points.size());
  std::vector<uint64_t> low;
  tree.SearchRange(Mbr::FromBounds({-500.0, -500.0}, {-400.0, -400.0}), &low);
  EXPECT_EQ(low.size(), 150u);
}

TEST(RPlusTreeTest, SearchPrunesWithMbrs) {
  RPlusTree tree(2, SmallConfig());
  InsertRandom(&tree, 2000, 6, 2);
  // Query far outside the data: no leaf should be visited.
  const Mbr query = Mbr::FromBounds({5000.0, 5000.0}, {6000.0, 6000.0});
  std::vector<uint64_t> got;
  const size_t visited = tree.SearchRange(query, &got);
  EXPECT_EQ(visited, 0u);
  EXPECT_TRUE(got.empty());
  // Small query visits far fewer leaves than exist.
  const Mbr small = Mbr::FromBounds({0.0, 0.0}, {50.0, 50.0});
  const size_t visited_small = tree.SearchRange(small, &got);
  EXPECT_LT(visited_small, tree.ComputeStats().num_leaves / 4);
}

TEST(RPlusTreeTest, MbrsAreTight) {
  RPlusTree tree(1, SmallConfig());
  for (int i = 0; i < 100; ++i) {
    const double p[] = {static_cast<double>(i)};
    tree.Insert({p, 1}, i, 0);
  }
  EXPECT_EQ(tree.root()->mbr().lo[0], 0.0);
  EXPECT_EQ(tree.root()->mbr().hi[0], 99.0);
}

TEST(RPlusTreeTest, OrderedLeavesAreSpatiallyCoherentIn1d) {
  RPlusTree tree(1, SmallConfig());
  Rng rng(10);
  for (int i = 0; i < 500; ++i) {
    const double p[] = {rng.UniformDouble(0, 1000)};
    tree.Insert({p, 1}, i, 0);
  }
  // In 1-D, left-to-right leaf order must be sorted by region.
  const auto leaves = tree.OrderedLeaves();
  for (size_t i = 1; i < leaves.size(); ++i) {
    EXPECT_LE(leaves[i - 1]->region().hi[0],
              leaves[i]->region().lo[0] + 1e-12);
  }
}

TEST(RPlusTreeTest, NodesAtDepthCoverAllRecords) {
  RPlusTree tree(2, SmallConfig());
  InsertRandom(&tree, 2000, 11, 2);
  for (int d = 0; d < tree.height(); ++d) {
    size_t total = 0;
    for (const Node* n : tree.NodesAtDepth(d)) total += n->record_count;
    EXPECT_EQ(total, 2000u) << "depth " << d;
  }
}

TEST(RPlusTreeTest, LeafConstraintVetoesSplit) {
  RTreeConfig config = SmallConfig();
  // Require every leaf to contain at least 2 distinct sensitive values.
  config.leaf_admissible = [](std::span<const int32_t> codes) {
    std::set<int32_t> distinct(codes.begin(), codes.end());
    return distinct.size() >= 2;
  };
  RPlusTree tree(1, config);
  // Left half of the line has sensitive 0, right half sensitive 1 — a
  // median split would create single-valued leaves once subdivided enough.
  Rng rng(12);
  for (int i = 0; i < 200; ++i) {
    const double x = rng.UniformDouble(0, 1000);
    const double p[] = {x};
    tree.Insert({p, 1}, i, x < 500 ? 0 : 1);
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  std::set<int32_t> distinct;
  for (const Node* leaf : tree.OrderedLeaves()) {
    distinct.clear();
    distinct.insert(leaf->sensitive().begin(), leaf->sensitive().end());
    EXPECT_GE(distinct.size(), 2u);
  }
}

TEST(RPlusTreeTest, BiasedSplittingOnlyCutsChosenAxis) {
  RTreeConfig config = SmallConfig();
  config.split.biased_axes = {0};
  RPlusTree tree(2, config);
  InsertRandom(&tree, 1000, 13, 2);
  ASSERT_TRUE(tree.CheckInvariants().ok());
  // All leaf regions must span the full extent of axis 1 (never cut).
  for (const Node* leaf : tree.OrderedLeaves()) {
    EXPECT_TRUE(std::isinf(leaf->region().lo[1]));
    EXPECT_TRUE(std::isinf(leaf->region().hi[1]));
  }
}

}  // namespace
}  // namespace kanon
