#include "anon/multigranular.h"

#include <gtest/gtest.h>

#include "anon/leaf_scan.h"
#include "common/random.h"
#include "index/buffer_tree.h"

namespace kanon {
namespace {

RPlusTree BuildTree(size_t n, uint64_t seed) {
  RTreeConfig config;
  config.min_leaf = 5;
  config.max_leaf = 15;
  config.max_fanout = 4;
  RPlusTree tree(2, std::move(config));
  Rng rng(seed);
  std::vector<double> p(2);
  for (size_t i = 0; i < n; ++i) {
    p[0] = rng.UniformDouble(0, 100);
    p[1] = rng.UniformDouble(0, 100);
    tree.Insert(p, i, static_cast<int32_t>(i % 4));
  }
  return tree;
}

TEST(MultigranularTest, ReleaseAtLeafDepthEqualsLeafPartitions) {
  RPlusTree tree = BuildTree(500, 1);
  const PartitionSet leaf_release =
      ReleaseAtDepth(tree, tree.height() - 1);
  EXPECT_EQ(leaf_release.num_partitions(),
            tree.ComputeStats().num_leaves);
  EXPECT_EQ(leaf_release.total_records(), 500u);
  EXPECT_TRUE(leaf_release.CheckKAnonymous(5).ok());
}

TEST(MultigranularTest, RootReleaseIsOnePartition) {
  RPlusTree tree = BuildTree(500, 2);
  const PartitionSet root_release = ReleaseAtDepth(tree, 0);
  ASSERT_EQ(root_release.num_partitions(), 1u);
  EXPECT_EQ(root_release.partitions[0].size(), 500u);
}

TEST(MultigranularTest, GranularityGrowsTowardRoot) {
  RPlusTree tree = BuildTree(2000, 3);
  const auto releases = HierarchicalReleases(tree);
  ASSERT_EQ(static_cast<int>(releases.size()), tree.height());
  size_t prev_min = 0;
  for (const PartitionSet& r : releases) {
    EXPECT_EQ(r.total_records(), 2000u);
    EXPECT_GE(r.min_partition_size(), std::max<size_t>(prev_min, 5));
    prev_min = r.min_partition_size();
  }
  // Coarser releases have fewer partitions.
  for (size_t i = 1; i < releases.size(); ++i) {
    EXPECT_LE(releases[i].num_partitions(),
              releases[i - 1].num_partitions());
  }
}

TEST(MultigranularTest, HierarchicalReleasesAreKBound) {
  RPlusTree tree = BuildTree(1500, 4);
  const PartitionSet base = ReleaseAtDepth(tree, tree.height() - 1);
  const auto releases = HierarchicalReleases(tree);
  EXPECT_TRUE(VerifyKBound(base, releases, 5, 1500).ok());
}

TEST(MultigranularTest, LeafScanReleasesAreKBound) {
  RPlusTree tree = BuildTree(1500, 5);
  const auto leaves = ExtractLeafGroups(tree);
  const PartitionSet base = LeafScan(leaves, 5);
  std::vector<PartitionSet> releases;
  for (size_t k1 : {5, 8, 13, 40, 100}) {
    releases.push_back(LeafScan(leaves, k1));
  }
  EXPECT_TRUE(VerifyKBound(base, releases, 5, 1500).ok());
}

TEST(MultigranularTest, VerifyKBoundCatchesLeafSplitting) {
  RPlusTree tree = BuildTree(300, 6);
  const PartitionSet base = ReleaseAtDepth(tree, tree.height() - 1);
  // Forge a release that splits the first leaf across two partitions.
  PartitionSet bad;
  Partition p1, p2;
  const Partition& leaf0 = base.partitions[0];
  ASSERT_GE(leaf0.size(), 2u);
  p1.rids.assign(leaf0.rids.begin(), leaf0.rids.begin() + 1);
  p2.rids.assign(leaf0.rids.begin() + 1, leaf0.rids.end());
  for (size_t i = 1; i < base.partitions.size(); ++i) {
    p2.rids.insert(p2.rids.end(), base.partitions[i].rids.begin(),
                   base.partitions[i].rids.end());
  }
  p1.box = p2.box = Mbr::FromBounds({0, 0}, {100, 100});
  bad.partitions = {p1, p2};
  const std::vector<PartitionSet> releases = {bad};
  EXPECT_FALSE(VerifyKBound(base, releases, 5, 300).ok());
}

TEST(MultigranularTest, VerifyKBoundRejectsUnderfullBaseLeaves) {
  PartitionSet base;
  Partition tiny;
  tiny.rids = {0, 1};
  tiny.box = Mbr::FromBounds({0.0}, {1.0});
  base.partitions.push_back(tiny);
  EXPECT_FALSE(VerifyKBound(base, {}, 5, 2).ok());
}

// The hierarchical release over a flushed buffer tree: one partition per
// node at `depth`, holding the records its subtree's leaves store.
PartitionSet BufferTreeReleaseAtDepth(const BufferTree& tree, int depth) {
  PartitionSet out;
  for (const BufferNode* n : tree.NodesAtDepth(depth)) {
    if (n->record_count == 0) continue;
    Partition p;
    p.box = n->mbr;
    for (const BufferNode* leaf : OrderedLeaves(*n)) {
      EXPECT_TRUE(tree.ScanLeaf(leaf,
                                [&p](uint64_t rid, int32_t,
                                     std::span<const double>) {
                                  p.rids.push_back(rid);
                                })
                      .ok());
    }
    out.partitions.push_back(std::move(p));
  }
  return out;
}

TEST(MultigranularTest, BufferTreeHierarchicalReleasesAreKBound) {
  MemPager pager(1024);
  BufferPool pool(&pager, 256);
  RTreeConfig config;
  config.min_leaf = 5;
  config.max_leaf = 15;
  config.max_fanout = 4;
  BufferTree tree(2, config, /*buffer_pages=*/8, &pool);
  Rng rng(8);
  const size_t n = 1200;
  std::vector<double> p(2);
  for (size_t i = 0; i < n; ++i) {
    p[0] = rng.UniformDouble(0, 100);
    p[1] = rng.UniformDouble(0, 100);
    ASSERT_TRUE(tree.Insert(p, i, 0).ok());
  }
  ASSERT_TRUE(tree.Flush().ok());
  const PartitionSet base = BufferTreeReleaseAtDepth(tree, tree.height() - 1);
  EXPECT_TRUE(base.CheckKAnonymous(5).ok());
  std::vector<PartitionSet> releases;
  for (int depth = tree.height() - 1; depth >= 0; --depth) {
    releases.push_back(BufferTreeReleaseAtDepth(tree, depth));
  }
  ASSERT_EQ(static_cast<int>(releases.size()), tree.height());
  for (const PartitionSet& r : releases) {
    EXPECT_EQ(r.total_records(), n);
  }
  EXPECT_TRUE(VerifyKBound(base, releases, 5, n).ok());
}

TEST(MultigranularTest, AdversaryIntersectionKeepsKCandidates) {
  // Simulated collusion: for every record, intersect its partitions across
  // all hierarchical releases — at least k candidates must remain.
  RPlusTree tree = BuildTree(800, 7);
  const auto releases = HierarchicalReleases(tree);
  const size_t n = 800;
  std::vector<std::vector<uint32_t>> membership;
  for (const auto& r : releases) {
    membership.push_back(RecordToPartition(r, n));
  }
  for (RecordId target = 0; target < n; target += 97) {
    size_t candidates = 0;
    for (RecordId other = 0; other < n; ++other) {
      bool indistinguishable = true;
      for (size_t rel = 0; rel < releases.size(); ++rel) {
        if (membership[rel][other] != membership[rel][target]) {
          indistinguishable = false;
          break;
        }
      }
      if (indistinguishable) ++candidates;
    }
    EXPECT_GE(candidates, 5u) << "record " << target;
  }
}

}  // namespace
}  // namespace kanon
