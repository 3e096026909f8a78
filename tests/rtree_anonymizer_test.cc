#include "anon/rtree_anonymizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/random.h"
#include "data/landsend_generator.h"
#include "metrics/certainty.h"

namespace kanon {
namespace {

Dataset RandomData(size_t n, size_t dim, uint64_t seed) {
  Dataset d(Schema::Numeric(dim));
  Rng rng(seed);
  std::vector<double> p(dim);
  for (size_t i = 0; i < n; ++i) {
    for (auto& v : p) v = rng.UniformDouble(0, 1000);
    d.Append(p, static_cast<int32_t>(i % 6));
  }
  return d;
}

TEST(RTreeAnonymizerTest, BufferTreeBackendProducesValidAnonymization) {
  const Dataset d = RandomData(3000, 4, 1);
  RTreeAnonymizer anonymizer;
  auto ps = anonymizer.Anonymize(d, 10);
  ASSERT_TRUE(ps.ok());
  EXPECT_TRUE(ps->CheckCovers(d).ok());
  EXPECT_TRUE(ps->CheckKAnonymous(10).ok());
}

TEST(RTreeAnonymizerTest, TupleLoadingBackendProducesValidAnonymization) {
  const Dataset d = RandomData(3000, 4, 2);
  RTreeAnonymizerOptions options;
  options.backend = RTreeAnonymizerOptions::Backend::kTupleLoading;
  RTreeAnonymizer anonymizer(options);
  auto ps = anonymizer.Anonymize(d, 10);
  ASSERT_TRUE(ps.ok());
  EXPECT_TRUE(ps->CheckCovers(d).ok());
  EXPECT_TRUE(ps->CheckKAnonymous(10).ok());
}

TEST(RTreeAnonymizerTest, DiskBackedBufferTreeWorks) {
  const Dataset d = RandomData(1500, 3, 3);
  RTreeAnonymizerOptions options;
  options.use_disk = true;
  options.memory_budget_bytes = 1 << 18;  // 256 KiB: forces real I/O
  RTreeAnonymizer anonymizer(options);
  auto ps = anonymizer.Anonymize(d, 5);
  ASSERT_TRUE(ps.ok());
  EXPECT_TRUE(ps->CheckCovers(d).ok());
  EXPECT_TRUE(ps->CheckKAnonymous(5).ok());
}

TEST(RTreeAnonymizerTest, BuildOnceGranularizeMany) {
  const Dataset d = RandomData(4000, 3, 4);
  RTreeAnonymizer anonymizer;
  auto built = anonymizer.BuildLeaves(d);
  ASSERT_TRUE(built.ok());
  EXPECT_GT(built->leaves.size(), 100u);
  size_t prev_partitions = static_cast<size_t>(-1);
  for (size_t k : {5, 10, 25, 50, 100, 250}) {
    const PartitionSet ps = anonymizer.Granularize(d, built->leaves, k);
    EXPECT_TRUE(ps.CheckCovers(d).ok()) << "k=" << k;
    EXPECT_TRUE(ps.CheckKAnonymous(k).ok()) << "k=" << k;
    EXPECT_LE(ps.num_partitions(), prev_partitions);
    prev_partitions = ps.num_partitions();
  }
}

TEST(RTreeAnonymizerTest, KBelowBaseClampsToBase) {
  const Dataset d = RandomData(500, 2, 5);
  RTreeAnonymizerOptions options;
  options.base_k = 10;
  RTreeAnonymizer anonymizer(options);
  auto ps = anonymizer.Anonymize(d, 2);
  ASSERT_TRUE(ps.ok());
  EXPECT_TRUE(ps->CheckKAnonymous(10).ok());
}

TEST(RTreeAnonymizerTest, EmptyDatasetIsInvalidArgument) {
  Dataset d(Schema::Numeric(2));
  RTreeAnonymizer anonymizer;
  EXPECT_EQ(anonymizer.Anonymize(d, 5).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RTreeAnonymizerTest, UncompactedBoxesAreLooser) {
  const Dataset d = LandsEndGenerator(6).Generate(2000);
  RTreeAnonymizerOptions compact_options;
  RTreeAnonymizerOptions region_options;
  region_options.compact = false;
  auto compact_ps = RTreeAnonymizer(compact_options).Anonymize(d, 10);
  auto region_ps = RTreeAnonymizer(region_options).Anonymize(d, 10);
  ASSERT_TRUE(compact_ps.ok());
  ASSERT_TRUE(region_ps.ok());
  EXPECT_TRUE(region_ps->CheckCovers(d).ok());
  const double compact_cm = CertaintyPenalty(d, *compact_ps);
  const double region_cm = CertaintyPenalty(d, *region_ps);
  EXPECT_LT(compact_cm, region_cm);
}

TEST(RTreeAnonymizerTest, ConstraintPropagatesToOutput) {
  const Dataset d = RandomData(2000, 3, 7);
  DistinctLDiversity constraint(/*k=*/10, /*l=*/3);
  RTreeAnonymizerOptions options;
  options.base_k = 10;
  options.constraint = &constraint;
  RTreeAnonymizer anonymizer(options);
  auto ps = anonymizer.Anonymize(d, 10);
  ASSERT_TRUE(ps.ok());
  EXPECT_TRUE(ps->CheckCovers(d).ok());
  for (const auto& p : ps->partitions) {
    EXPECT_TRUE(constraint.Admissible(d, p.rids));
  }
}

TEST(IncrementalAnonymizerTest, InsertsMaintainAnonymity) {
  const Dataset d = RandomData(2000, 3, 8);
  IncrementalAnonymizer inc(3);
  inc.InsertBatch(d, 0, 1000);
  PartitionSet first = inc.Snapshot(d, 10);
  EXPECT_TRUE(first.CheckKAnonymous(10).ok());
  EXPECT_EQ(first.total_records(), 1000u);
  inc.InsertBatch(d, 1000, 2000);
  PartitionSet second = inc.Snapshot(d, 10);
  EXPECT_TRUE(second.CheckKAnonymous(10).ok());
  EXPECT_EQ(second.total_records(), 2000u);
  EXPECT_TRUE(inc.tree().CheckInvariants().ok());
}

TEST(IncrementalAnonymizerTest, EmptySnapshotHasNoPartitions) {
  // Publishing before the first insert yields nothing: the lone empty root
  // leaf is not a group.
  const Dataset d = RandomData(100, 3, 9);
  IncrementalAnonymizer inc(3);
  EXPECT_EQ(inc.Snapshot(d, 10).partitions.size(), 0u);
  EXPECT_TRUE(ExtractLeafGroups(inc.tree()).empty());

  MemPager pager(1024);
  BufferPool pool(&pager, 8);
  BufferTree buffered(3, RTreeConfig{}, /*buffer_pages=*/1, &pool);
  ASSERT_TRUE(buffered.Flush().ok());
  const auto groups = ExtractLeafGroups(buffered);
  ASSERT_TRUE(groups.ok());
  EXPECT_TRUE(groups->empty());
}

// Repack was once called Vacuum, and the churn it repaired was deletes. The
// index is insert-only now; the churn left is an arrival order that fixes
// the tree's top cuts from a handful of early records.

std::vector<RecordId> AscendingOnAttribute0(const Dataset& d) {
  std::vector<RecordId> order(d.num_records());
  std::iota(order.begin(), order.end(), RecordId{0});
  std::stable_sort(order.begin(), order.end(), [&](RecordId a, RecordId b) {
    return d.value(a, 0) < d.value(b, 0);
  });
  return order;
}

TEST(IncrementalAnonymizerTest, VacuumRestoresOccupancyAfterChurn) {
  const Dataset d = RandomData(2000, 2, 11);
  IncrementalAnonymizer inc(2);
  for (RecordId r : AscendingOnAttribute0(d)) {
    inc.Insert(d.row(r), r, d.sensitive(r));
  }
  // Sorted arrival splits each leaf as soon as it fills, leaving many
  // leaves at the occupancy floor…
  const size_t leaves_before = inc.tree().OrderedLeaves().size();
  inc.Repack();
  // …which the rebuild packs into fewer, fuller leaves over the same records.
  const std::vector<const Node*> leaves = inc.tree().OrderedLeaves();
  EXPECT_LT(leaves.size(), leaves_before);
  for (const Node* leaf : leaves) {
    EXPECT_GT(leaf->leaf_size(), inc.tree().config().min_leaf);
  }
  EXPECT_EQ(inc.size(), 2000u);
  EXPECT_TRUE(inc.tree().CheckInvariants().ok());
  const PartitionSet view = inc.Snapshot(d, 10);
  EXPECT_EQ(view.total_records(), 2000u);
  EXPECT_TRUE(view.CheckKAnonymous(10).ok());
}

TEST(IncrementalAnonymizerTest, VacuumImprovesQualityAfterChurn) {
  // Repack rebuilds the tree from the whole record set: better than either
  // arrival order, and the same for both.
  const Dataset d = LandsEndGenerator(12).Generate(4000);
  const Domain domain = d.ComputeDomain();
  std::vector<RecordId> generator_order(d.num_records());
  std::iota(generator_order.begin(), generator_order.end(), RecordId{0});
  std::vector<RecordId> ascending = AscendingOnAttribute0(d);

  std::vector<double> repacked_ncp;
  for (const auto* order : {&generator_order, &ascending}) {
    IncrementalAnonymizer inc(d.dim(), {}, &domain);
    for (RecordId r : *order) inc.Insert(d.row(r), r, d.sensitive(r));
    const double before = AverageNcp(d, inc.Snapshot(d, 10));
    inc.Repack();
    EXPECT_EQ(inc.size(), d.num_records());
    EXPECT_TRUE(inc.tree().CheckInvariants().ok());
    const double after = AverageNcp(d, inc.Snapshot(d, 10));
    EXPECT_LT(after, before);
    repacked_ncp.push_back(after);
  }
  EXPECT_EQ(repacked_ncp[0], repacked_ncp[1]);
}

TEST(IncrementalAnonymizerTest, SnapshotQualityComparableToBulk) {
  const Dataset d = LandsEndGenerator(10).Generate(3000);
  IncrementalAnonymizer inc(d.dim());
  for (int batch = 0; batch < 3; ++batch) {
    inc.InsertBatch(d, batch * 1000, (batch + 1) * 1000);
  }
  const PartitionSet incremental = inc.Snapshot(d, 10);
  auto bulk = RTreeAnonymizer().Anonymize(d, 10);
  ASSERT_TRUE(bulk.ok());
  const double inc_ncp = AverageNcp(d, incremental);
  const double bulk_ncp = AverageNcp(d, *bulk);
  // Paper Fig 11: incremental quality is comparable (allow 2x slack).
  EXPECT_LT(inc_ncp, 2.0 * bulk_ncp + 0.01);
}

}  // namespace
}  // namespace kanon
