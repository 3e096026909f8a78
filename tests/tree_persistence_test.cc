#include "index/tree_persistence.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>

#include "common/random.h"
#include "scratch_dir.h"

namespace kanon {
namespace {

RTreeConfig SmallConfig() {
  RTreeConfig config;
  config.min_leaf = 3;
  config.max_leaf = 9;
  config.max_fanout = 4;
  return config;
}

// Opens a snapshot file the way RecoverInto does and loads the tree.
StatusOr<RPlusTree> LoadFromFile(const std::string& path,
                                 const TreeSnapshot& snapshot) {
  KANON_ASSIGN_OR_RETURN(auto pager,
                         FilePager::Open(path, kDefaultPageSize,
                                         /*truncate=*/false));
  return LoadTree(pager.get(), snapshot, 2, SmallConfig());
}

RPlusTree BuildRandom(size_t n, uint64_t seed,
                      std::vector<std::vector<double>>* points = nullptr) {
  RPlusTree tree(2, SmallConfig());
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> p = {rng.UniformDouble(0, 1000),
                             rng.UniformDouble(0, 1000)};
    tree.Insert(p, i, static_cast<int32_t>(i % 5));
    if (points != nullptr) points->push_back(std::move(p));
  }
  return tree;
}

TEST(TreePersistenceTest, RoundTripPreservesStructureAndRecords) {
  std::vector<std::vector<double>> points;
  const RPlusTree tree = BuildRandom(2000, 1, &points);
  MemPager pager(1024);  // small pages force a long stream chain
  auto snapshot = SaveTree(tree, &pager);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_GT(snapshot->byte_size, 2000u * 2 * sizeof(double));
  EXPECT_EQ(snapshot->record_count, 2000u);

  auto loaded = LoadTree(&pager, *snapshot, 2, SmallConfig());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 2000u);
  EXPECT_EQ(loaded->height(), tree.height());
  ASSERT_TRUE(loaded->CheckInvariants().ok());

  // Same leaf partitioning (hence the same published equivalence classes).
  const auto original_leaves = tree.OrderedLeaves();
  const auto loaded_leaves = loaded->OrderedLeaves();
  ASSERT_EQ(original_leaves.size(), loaded_leaves.size());
  for (size_t i = 0; i < original_leaves.size(); ++i) {
    EXPECT_TRUE(std::ranges::equal(original_leaves[i]->rids(),
                                   loaded_leaves[i]->rids()));
    EXPECT_EQ(Mbr::FromView(original_leaves[i]->mbr()),
              Mbr::FromView(loaded_leaves[i]->mbr()));
  }
}

TEST(TreePersistenceTest, LoadedTreeAcceptsFurtherInserts) {
  const RPlusTree tree = BuildRandom(500, 2);
  MemPager pager;
  auto snapshot = SaveTree(tree, &pager);
  ASSERT_TRUE(snapshot.ok());
  auto loaded = LoadTree(&pager, *snapshot, 2, SmallConfig());
  ASSERT_TRUE(loaded.ok());
  Rng rng(3);
  for (size_t i = 500; i < 1500; ++i) {
    const double p[] = {rng.UniformDouble(0, 1000),
                        rng.UniformDouble(0, 1000)};
    loaded->Insert({p, 2}, i, 0);
  }
  EXPECT_EQ(loaded->size(), 1500u);
  EXPECT_TRUE(loaded->CheckInvariants().ok());
}

TEST(TreePersistenceTest, EmptyTreeRoundTrips) {
  RPlusTree tree(3, SmallConfig());
  MemPager pager;
  auto snapshot = SaveTree(tree, &pager);
  ASSERT_TRUE(snapshot.ok());
  auto loaded = LoadTree(&pager, *snapshot, 3, SmallConfig());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 0u);
  EXPECT_TRUE(loaded->root()->is_leaf);
}

TEST(TreePersistenceTest, DimensionMismatchRejected) {
  const RPlusTree tree = BuildRandom(100, 4);
  MemPager pager;
  auto snapshot = SaveTree(tree, &pager);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(LoadTree(&pager, *snapshot, 3, SmallConfig()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TreePersistenceTest, ConfigMismatchRejected) {
  const RPlusTree tree = BuildRandom(100, 5);
  MemPager pager;
  auto snapshot = SaveTree(tree, &pager);
  ASSERT_TRUE(snapshot.ok());
  RTreeConfig other = SmallConfig();
  other.min_leaf = 4;
  EXPECT_EQ(LoadTree(&pager, *snapshot, 2, other).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TreePersistenceTest, GarbageRejected) {
  MemPager pager;
  const PageId page = pager.Allocate();
  std::vector<char> junk(pager.page_size(), 0x5a);
  // Terminate the chain so the reader fails on content, not on traversal.
  const PageId invalid = kInvalidPageId;
  std::memcpy(junk.data(), &invalid, sizeof(invalid));
  ASSERT_TRUE(pager.Write(page, junk.data()).ok());
  TreeSnapshot snapshot;
  snapshot.first_page = page;
  EXPECT_EQ(LoadTree(&pager, snapshot, 2, SmallConfig()).status().code(),
            StatusCode::kCorruption);
}

TEST(TreePersistenceTest, WorksOnRealFilePager) {
  const RPlusTree tree = BuildRandom(800, 7);
  auto pager = FilePager::Create(4096);
  ASSERT_TRUE(pager.ok());
  auto snapshot = SaveTree(tree, pager->get());
  ASSERT_TRUE(snapshot.ok());
  auto loaded = LoadTree(pager->get(), *snapshot, 2, SmallConfig());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 800u);
  EXPECT_TRUE(loaded->CheckInvariants().ok());
}

TEST(TreePersistenceTest, MidIncrementalLoadMatchesUnpersistedRun) {
  // Persisting the index halfway through an incremental load and resuming
  // on the restored copy must be invisible: same leaf partitioning, same
  // k-occupancy, record for record — the durability subsystem's
  // correctness hinges on exactly this property.
  Rng rng(8);
  std::vector<std::vector<double>> points;
  for (size_t i = 0; i < 3000; ++i) {
    points.push_back({rng.UniformDouble(0, 1000), rng.UniformDouble(0, 1000)});
  }

  RPlusTree uninterrupted(2, SmallConfig());
  RPlusTree first_half(2, SmallConfig());
  for (size_t i = 0; i < points.size(); ++i) {
    uninterrupted.Insert(points[i], i, static_cast<int32_t>(i % 4));
    if (i < points.size() / 2) {
      first_half.Insert(points[i], i, static_cast<int32_t>(i % 4));
    }
  }

  const testutil::ScratchDir dir;
  const std::string path = dir.file("mid_load_tree.db");
  auto snapshot = SaveTreeToFile(first_half, path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  auto resumed = LoadFromFile(path, *snapshot);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  for (size_t i = points.size() / 2; i < points.size(); ++i) {
    resumed->Insert(points[i], i, static_cast<int32_t>(i % 4));
  }

  ASSERT_TRUE(resumed->CheckInvariants().ok());
  EXPECT_EQ(resumed->size(), uninterrupted.size());
  const auto expected = uninterrupted.OrderedLeaves();
  const auto actual = resumed->OrderedLeaves();
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(std::ranges::equal(expected[i]->rids(), actual[i]->rids()));
    EXPECT_EQ(Mbr::FromView(expected[i]->mbr()),
              Mbr::FromView(actual[i]->mbr()));
  }
  // The k-constraint (min leaf occupancy) holds on the resumed tree.
  EXPECT_GE(resumed->ComputeStats().min_leaf_size, SmallConfig().min_leaf);
}

TEST(TreePersistenceTest, FileSnapshotChecksumCatchesBitRot) {
  const RPlusTree tree = BuildRandom(600, 9);
  const testutil::ScratchDir dir;
  const std::string path = dir.file("bitrot_tree.db");
  auto snapshot = SaveTreeToFile(tree, path);
  ASSERT_TRUE(snapshot.ok());
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(777);
    char byte = 0;
    f.seekg(777);
    f.get(byte);
    f.seekp(777);
    f.put(static_cast<char>(byte ^ 0x08));
  }
  auto loaded = LoadFromFile(path, *snapshot);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);

  // A checksum of 0 is compared like any other: it does not switch the
  // verification off.
  TreeSnapshot zero_crc = *snapshot;
  zero_crc.crc32 = 0;
  EXPECT_EQ(LoadFromFile(path, zero_crc).status().code(),
            StatusCode::kCorruption);

  // A huge leaf count must be refused before anything is sized by it. The
  // stream opens with the page link, the magic and five header words;
  // each internal node on the leftmost path then takes a tag, two region
  // corners, an MBR flag, two MBR corners and a fanout word, and the
  // first leaf's count follows the same fields minus the fanout.
  auto fresh = SaveTreeToFile(tree, path);
  ASSERT_TRUE(fresh.ok());
  const size_t node_head = 1 + 2 * 2 * sizeof(double) + 1 +
                           2 * 2 * sizeof(double);
  const size_t count_offset =
      sizeof(PageId) + sizeof(uint32_t) + 5 * sizeof(uint64_t) +
      static_cast<size_t>(tree.height() - 1) * (node_head + sizeof(uint64_t)) +
      node_head;
  ASSERT_LT(count_offset + sizeof(uint64_t), kDefaultPageSize);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    uint64_t count = 0;
    f.seekg(static_cast<std::streamoff>(count_offset));
    f.read(reinterpret_cast<char*>(&count), sizeof(count));
    ASSERT_EQ(count, tree.OrderedLeaves().front()->leaf_size());
    count = uint64_t{1} << 58;
    f.seekp(static_cast<std::streamoff>(count_offset));
    f.write(reinterpret_cast<const char*>(&count), sizeof(count));
  }
  EXPECT_EQ(LoadFromFile(path, *fresh).status().code(),
            StatusCode::kCorruption);
}

}  // namespace
}  // namespace kanon
