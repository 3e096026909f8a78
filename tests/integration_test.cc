#include <gtest/gtest.h>

#include "kanon/kanon.h"

namespace kanon {
namespace {

// End-to-end flows across modules, on the realistic generators.

TEST(IntegrationTest, AdultEndToEnd) {
  const Dataset d = Adult::Synthesize(5000);
  RTreeAnonymizer anonymizer;
  auto ps = anonymizer.Anonymize(d, 10);
  ASSERT_TRUE(ps.ok());
  ASSERT_TRUE(ps->CheckCovers(d).ok());
  ASSERT_TRUE(ps->CheckKAnonymous(10).ok());
  auto table = AnonymizedTable::FromPartitions(d, *std::move(ps));
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_records(), 5000u);
  // Rendering must work for hierarchy-backed categoricals.
  EXPECT_FALSE(table->RenderRow(d.schema(), 0).empty());
}

TEST(IntegrationTest, LandsEndQualityOrderingHolds) {
  // The paper's central quality result, end to end: R-tree <= compacted
  // Mondrian <= uncompacted Mondrian on certainty.
  const Dataset d = LandsEndGenerator(1).Generate(4000);
  auto rtree_ps = RTreeAnonymizer().Anonymize(d, 10);
  ASSERT_TRUE(rtree_ps.ok());
  PartitionSet mondrian = Mondrian().Anonymize(d, 10);
  PartitionSet mondrian_compact = mondrian;
  CompactPartitions(d, &mondrian_compact);
  const double cm_rtree = CertaintyPenalty(d, *rtree_ps);
  const double cm_mc = CertaintyPenalty(d, mondrian_compact);
  const double cm_m = CertaintyPenalty(d, mondrian);
  EXPECT_LT(cm_mc, cm_m);
  EXPECT_LT(cm_rtree, cm_m);
}

TEST(IntegrationTest, BufferTreeAndTupleLoadingAgreeOnGuarantees) {
  const Dataset d = AgrawalGenerator(2).Generate(3000);
  for (auto backend : {RTreeAnonymizerOptions::Backend::kBufferTree,
                       RTreeAnonymizerOptions::Backend::kTupleLoading}) {
    RTreeAnonymizerOptions options;
    options.backend = backend;
    auto ps = RTreeAnonymizer(options).Anonymize(d, 25);
    ASSERT_TRUE(ps.ok());
    EXPECT_TRUE(ps->CheckCovers(d).ok());
    EXPECT_TRUE(ps->CheckKAnonymous(25).ok());
  }
}

TEST(IntegrationTest, MultiGranularReleasesFromOneIndex) {
  const Dataset d = Adult::Synthesize(3000);
  RTreeAnonymizerOptions options;
  options.base_k = 5;
  RTreeAnonymizer anonymizer(options);
  auto built = anonymizer.BuildLeaves(d);
  ASSERT_TRUE(built.ok());
  const PartitionSet base = anonymizer.Granularize(d, built->leaves, 5);
  std::vector<PartitionSet> releases;
  for (size_t k : {5, 10, 50}) {
    releases.push_back(anonymizer.Granularize(d, built->leaves, k));
    EXPECT_TRUE(releases.back().CheckKAnonymous(k).ok());
  }
  EXPECT_TRUE(VerifyKBound(base, releases, 5, d.num_records()).ok());
}

TEST(IntegrationTest, QueriesOnRTreeBeatMondrianUncompacted) {
  // At k close to the index's base k the leaf MBRs answer directly and the
  // R⁺-tree beats uncompacted Mondrian (paper Fig 12a). For k far above
  // base k, leaf-scan unions loosen the boxes; building the index at
  // base k = k restores the advantage — both behaviours are asserted.
  const Dataset d = LandsEndGenerator(4).Generate(3000);
  Rng rng(5);
  const auto queries = MakeRecordPairWorkload(d, 200, &rng);
  {
    auto rtree_ps = RTreeAnonymizer().Anonymize(d, 10);
    ASSERT_TRUE(rtree_ps.ok());
    const PartitionSet mondrian = Mondrian().Anonymize(d, 10);
    EXPECT_LT(EvaluateWorkload(d, *rtree_ps, queries).average_error,
              EvaluateWorkload(d, mondrian, queries).average_error);
  }
  {
    RTreeAnonymizerOptions options;
    options.base_k = 25;
    auto rtree_ps = RTreeAnonymizer(options).Anonymize(d, 25);
    ASSERT_TRUE(rtree_ps.ok());
    const PartitionSet mondrian = Mondrian().Anonymize(d, 25);
    EXPECT_LT(EvaluateWorkload(d, *rtree_ps, queries).average_error,
              EvaluateWorkload(d, mondrian, queries).average_error);
  }
}

TEST(IntegrationTest, BiasedIndexImprovesTargetAttributeQueries) {
  const Dataset d = LandsEndGenerator(6).Generate(3000);
  const size_t zipcode_attr = 0;
  RTreeAnonymizerOptions unbiased;
  RTreeAnonymizerOptions biased;
  biased.split.biased_axes = {zipcode_attr};
  auto ps_unbiased = RTreeAnonymizer(unbiased).Anonymize(d, 25);
  auto ps_biased = RTreeAnonymizer(biased).Anonymize(d, 25);
  ASSERT_TRUE(ps_unbiased.ok());
  ASSERT_TRUE(ps_biased.ok());
  Rng rng(7);
  const auto queries =
      MakeSingleAttributeWorkload(d, zipcode_attr, 300, &rng);
  const double unbiased_error =
      EvaluateWorkload(d, *ps_unbiased, queries).average_error;
  const double biased_error =
      EvaluateWorkload(d, *ps_biased, queries).average_error;
  EXPECT_LT(biased_error, unbiased_error);
}

TEST(IntegrationTest, LDiversityEndToEnd) {
  const Dataset d = Adult::Synthesize(3000);
  DistinctLDiversity constraint(/*k=*/10, /*l=*/4);
  RTreeAnonymizerOptions options;
  options.base_k = 10;
  options.constraint = &constraint;
  auto ps = RTreeAnonymizer(options).Anonymize(d, 10);
  ASSERT_TRUE(ps.ok());
  EXPECT_TRUE(ps->CheckCovers(d).ok());
  for (const auto& p : ps->partitions) {
    EXPECT_TRUE(constraint.Admissible(d, p.rids));
  }
}

TEST(IntegrationTest, SortLoadersFeedLeafScanToo) {
  // Space-filling-curve loaders plug into the same leaf-scan pipeline.
  const Dataset d = AgrawalGenerator(8).Generate(2000);
  SortLoadConfig config{.min_size = 5, .target_size = 15, .grid_bits = 10};
  for (auto order : {CurveOrder::kHilbert, CurveOrder::kZOrder}) {
    const auto leaves = CurveBulkLoad(d, order, config);
    const PartitionSet ps = LeafScan(leaves, 25);
    EXPECT_TRUE(ps.CheckCovers(d).ok());
    EXPECT_TRUE(ps.CheckKAnonymous(25).ok());
  }
  const auto str_leaves = StrBulkLoad(d, config);
  const PartitionSet ps = LeafScan(str_leaves, 25);
  EXPECT_TRUE(ps.CheckCovers(d).ok());
  EXPECT_TRUE(ps.CheckKAnonymous(25).ok());
}

}  // namespace
}  // namespace kanon
