#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <tuple>

#include "invariants.h"
#include "kanon/kanon.h"

namespace kanon {
namespace {

// Parameterized property sweeps over (k, dataset size, dimensionality,
// seed). Each property is an invariant the paper's correctness argument
// rests on, exercised across the parameter grid.

Dataset MakeData(size_t n, size_t dim, uint64_t seed) {
  Dataset d(Schema::Numeric(dim));
  Rng rng(seed);
  std::vector<double> p(dim);
  for (size_t i = 0; i < n; ++i) {
    for (auto& v : p) {
      // Mix of continuous, discretized and duplicate-heavy values.
      const double raw = rng.UniformDouble(0, 1000);
      v = (i % 3 == 0) ? std::floor(raw / 50) * 50 : raw;
    }
    d.Append(p, static_cast<int32_t>(rng.Uniform(6)));
  }
  return d;
}

using AnonParams = std::tuple<size_t /*k*/, size_t /*n*/, size_t /*dim*/,
                              uint64_t /*seed*/>;

class AnonymizationProperty : public ::testing::TestWithParam<AnonParams> {
 protected:
  size_t k() const { return std::get<0>(GetParam()); }
  size_t n() const { return std::get<1>(GetParam()); }
  size_t dim() const { return std::get<2>(GetParam()); }
  uint64_t seed() const { return std::get<3>(GetParam()); }
};

TEST_P(AnonymizationProperty, RTreeOutputIsKAnonymousCover) {
  const Dataset d = MakeData(n(), dim(), seed());
  auto ps = RTreeAnonymizer().Anonymize(d, k());
  ASSERT_TRUE(ps.ok());
  testutil::ExpectPartitionInvariants(d, *ps, std::min<size_t>(k(), n()));
}

TEST_P(AnonymizationProperty, MondrianOutputIsKAnonymousCover) {
  const Dataset d = MakeData(n(), dim(), seed());
  const PartitionSet ps = Mondrian().Anonymize(d, k());
  testutil::ExpectPartitionInvariants(d, ps, std::min<size_t>(k(), n()));
}

TEST_P(AnonymizationProperty, RelaxedMondrianOutputIsKAnonymousCover) {
  const Dataset d = MakeData(n(), dim(), seed());
  MondrianConfig config;
  config.strict = false;
  const PartitionSet ps = Mondrian(config).Anonymize(d, k());
  testutil::ExpectPartitionInvariants(d, ps, std::min<size_t>(k(), n()));
  // Relaxed halving bounds every partition below 4k (a cut is allowable
  // whenever n >= 2k, and each cut halves exactly).
  EXPECT_LT(ps.max_partition_size(), std::max<size_t>(4 * k(), n() + 1));
}

TEST_P(AnonymizationProperty, GridOutputIsKAnonymousCover) {
  const Dataset d = MakeData(n(), dim(), seed());
  auto ps = GridAnonymizer().Anonymize(d, k());
  ASSERT_TRUE(ps.ok());
  testutil::ExpectPartitionInvariants(d, *ps, std::min<size_t>(k(), n()));
}

TEST_P(AnonymizationProperty, BufferTreeChurnKeepsRecordSetExact) {
  // A stream of buffered inserts, cleared down through the tree in
  // batches, must land every record in exactly one leaf, and every leaf
  // but a lone root must hold at least min_leaf of them.
  const Dataset d = MakeData(n(), dim(), seed());
  MemPager pager(1024);
  BufferPool pool(&pager, 512);
  RTreeConfig config;
  config.min_leaf = k();
  config.max_leaf = 3 * k();
  BufferTree tree(dim(), config, /*buffer_pages=*/2, &pool);
  std::set<uint64_t> inserted;
  for (RecordId r = 0; r < d.num_records(); ++r) {
    ASSERT_TRUE(tree.Insert(d.row(r), r, d.sensitive(r)).ok());
    inserted.insert(r);
  }
  ASSERT_TRUE(tree.Flush().ok());
  EXPECT_EQ(tree.size(), inserted.size());
  EXPECT_TRUE(tree.CheckInvariants().ok());
  std::set<uint64_t> indexed;
  for (const BufferNode* leaf : tree.OrderedLeaves()) {
    ASSERT_TRUE(tree.ScanLeaf(leaf, [&](uint64_t rid, int32_t,
                                        std::span<const double>) {
                      EXPECT_TRUE(indexed.insert(rid).second);
                    })
                    .ok());
  }
  EXPECT_EQ(indexed, inserted);
}

TEST_P(AnonymizationProperty, CompactionShrinksAndPreservesCover) {
  const Dataset d = MakeData(n(), dim(), seed());
  PartitionSet ps = Mondrian().Anonymize(d, k());
  const double before_cm = CertaintyPenalty(d, ps);
  PartitionSet compacted = ps;
  CompactPartitions(d, &compacted);
  EXPECT_TRUE(compacted.CheckCovers(d).ok());
  EXPECT_LE(CertaintyPenalty(d, compacted), before_cm + 1e-9);
  EXPECT_DOUBLE_EQ(DiscernibilityPenalty(compacted),
                   DiscernibilityPenalty(ps));
}

TEST_P(AnonymizationProperty, IncrementalTreeInvariantsSurviveChurn) {
  // Record-at-a-time inserts keep every structural invariant after every
  // split, including the occupancy floor, and any snapshot is k-anonymous.
  const Dataset d = MakeData(n(), dim(), seed());
  IncrementalAnonymizer inc(dim());
  for (RecordId r = 0; r < d.num_records(); ++r) {
    inc.Insert(d.row(r), r, d.sensitive(r));
  }
  EXPECT_EQ(inc.size(), n());
  EXPECT_TRUE(inc.tree().CheckInvariants().ok());
  testutil::ExpectTreeLeafInvariants(inc.tree(), inc.options().base_k);
  const PartitionSet view = inc.Snapshot(d, k());
  EXPECT_EQ(view.total_records(), n());
  EXPECT_TRUE(view.CheckKAnonymous(k()).ok());
}

TEST_P(AnonymizationProperty, BackendsAgreeOnCoverageAndQuality) {
  // Buffer-tree and tuple-loading backends index the same records and land
  // in the same quality regime (the structures differ, the guarantees and
  // rough precision must not).
  const Dataset d = MakeData(n(), dim(), seed());
  RTreeAnonymizerOptions buffer_options;
  RTreeAnonymizerOptions tuple_options;
  tuple_options.backend = RTreeAnonymizerOptions::Backend::kTupleLoading;
  auto a = RTreeAnonymizer(buffer_options).Anonymize(d, k());
  auto b = RTreeAnonymizer(tuple_options).Anonymize(d, k());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->CheckCovers(d).ok());
  EXPECT_TRUE(b->CheckCovers(d).ok());
  const double ncp_a = AverageNcp(d, *a);
  const double ncp_b = AverageNcp(d, *b);
  EXPECT_LT(std::abs(ncp_a - ncp_b), 0.5 * std::max(ncp_a, ncp_b) + 0.05);
}

TEST_P(AnonymizationProperty, PersistenceRoundTripsIncrementalTree) {
  const Dataset d = MakeData(n(), dim(), seed());
  IncrementalAnonymizer inc(dim());
  inc.InsertBatch(d, 0, d.num_records());
  MemPager pager;
  auto snapshot = SaveTree(inc.tree(), &pager);
  ASSERT_TRUE(snapshot.ok());
  auto loaded = LoadTree(&pager, *snapshot, dim(), inc.tree().config());
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded->CheckInvariants().ok());
  const auto before = ExtractLeafGroups(inc.tree());
  const auto after = ExtractLeafGroups(*loaded);
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].rids, after[i].rids);
  }
}

TEST_P(AnonymizationProperty, LeafScanGranularitySweepIsMonotone) {
  const Dataset d = MakeData(n(), dim(), seed());
  RTreeAnonymizer anonymizer;
  auto built = anonymizer.BuildLeaves(d);
  ASSERT_TRUE(built.ok());
  size_t prev = static_cast<size_t>(-1);
  for (size_t k1 = k(); k1 <= 16 * k(); k1 *= 2) {
    const PartitionSet ps = anonymizer.Granularize(d, built->leaves, k1);
    EXPECT_TRUE(ps.CheckKAnonymous(std::min(k1, n())).ok());
    EXPECT_LE(ps.num_partitions(), prev);
    prev = ps.num_partitions();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AnonymizationProperty,
    ::testing::Combine(::testing::Values<size_t>(2, 5, 17),
                       ::testing::Values<size_t>(200, 1500),
                       ::testing::Values<size_t>(1, 2, 5),
                       ::testing::Values<uint64_t>(11, 29)),
    [](const ::testing::TestParamInfo<AnonParams>& info) {
      return "k" + std::to_string(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param)) + "_d" +
             std::to_string(std::get<2>(info.param)) + "_s" +
             std::to_string(std::get<3>(info.param));
    });

// Query-error properties on a smaller grid (queries are O(n) each).

class QueryProperty
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(QueryProperty, AnonymizedCountNeverUndercounts) {
  const auto [k, seed] = GetParam();
  const Dataset d = MakeData(800, 3, seed);
  auto ps = RTreeAnonymizer().Anonymize(d, k);
  ASSERT_TRUE(ps.ok());
  Rng rng(seed + 1);
  for (const auto& q : MakeRecordPairWorkload(d, 50, &rng)) {
    const size_t original = CountOriginal(d, q);
    const double anonymized = CountAnonymized(*ps, q);
    EXPECT_GE(anonymized + 1e-9, static_cast<double>(original));
  }
}

TEST_P(QueryProperty, UniformEstimateBoundedByAllMatching) {
  const auto [k, seed] = GetParam();
  const Dataset d = MakeData(800, 3, seed);
  auto ps = RTreeAnonymizer().Anonymize(d, k);
  ASSERT_TRUE(ps.ok());
  Rng rng(seed + 2);
  for (const auto& q : MakeRecordPairWorkload(d, 50, &rng)) {
    EXPECT_LE(CountAnonymized(*ps, q, EstimationMode::kUniform),
              CountAnonymized(*ps, q, EstimationMode::kAllMatching) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QueryProperty,
    ::testing::Combine(::testing::Values<size_t>(5, 25),
                       ::testing::Values<uint64_t>(3, 7)));

// Hilbert curve bijectivity across dimensions and bit widths.

class HilbertProperty
    : public ::testing::TestWithParam<std::tuple<int /*dim*/, int /*bits*/>> {
};

TEST_P(HilbertProperty, KeysArePermutation) {
  const auto [dim, bits] = GetParam();
  const size_t side = 1u << bits;
  size_t total = 1;
  for (int i = 0; i < dim; ++i) total *= side;
  if (total > 1u << 16) GTEST_SKIP() << "grid too large for exhaustive check";
  std::set<CurveKey> hilbert_keys, z_keys;
  std::vector<uint32_t> coord(dim, 0);
  for (size_t cell = 0; cell < total; ++cell) {
    size_t c = cell;
    for (int i = 0; i < dim; ++i) {
      coord[i] = c % side;
      c /= side;
    }
    hilbert_keys.insert(HilbertKey({coord.data(), coord.size()}, bits));
    z_keys.insert(ZOrderKey({coord.data(), coord.size()}, bits));
  }
  EXPECT_EQ(hilbert_keys.size(), total);
  EXPECT_EQ(z_keys.size(), total);
}

INSTANTIATE_TEST_SUITE_P(Sweep, HilbertProperty,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4),
                                            ::testing::Values(2, 3, 4)));

}  // namespace
}  // namespace kanon
