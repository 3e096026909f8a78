// Tests of the serial top-down bulk load behind IncrementalAnonymizer::
// Repack. The contract under test: every built tree passes the shared
// structural invariants (tests/invariants.h), a rebuild from the same
// records yields a byte-identical serialized snapshot, and any input order
// of the records yields the same leaves.

#include "index/bulk_load.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <ostream>
#include <utility>
#include <vector>

#include "common/random.h"
#include "differential.h"
#include "invariants.h"

namespace kanon {
namespace {

using testutil::SnapshotBytes;

Dataset MakeData(size_t n, size_t dim, uint64_t seed) {
  Dataset d(Schema::Numeric(dim));
  Rng rng(seed);
  std::vector<double> p(dim);
  for (size_t i = 0; i < n; ++i) {
    for (auto& v : p) {
      // Mix continuous, discretized (duplicate-heavy) and clustered values
      // so key ties and degenerate cuts are exercised.
      const double raw = rng.UniformDouble(0, 1000);
      v = (i % 3 == 0) ? std::floor(raw / 50) * 50 : raw;
    }
    d.Append(p, static_cast<int32_t>(rng.Uniform(6)));
  }
  return d;
}

RTreeConfig SmallConfig() {
  RTreeConfig config;
  config.min_leaf = 5;
  config.max_leaf = 10;
  return config;
}

/// Bulk-loads `data`'s records, in rid order.
RPlusTree Build(const Dataset& data, const RTreeConfig& config) {
  RecordBatch records(data.dim());
  records.Reserve(data.num_records());
  for (RecordId r = 0; r < data.num_records(); ++r) {
    records.Append(r, data.sensitive(r), data.row(r));
  }
  return TopDownBulkLoad(std::move(records), config);
}

// `name` is the instance's test id. Each id ends in `_r<records>_f<frames>`,
// the run size and pool frames of the external-sort loader these instances
// were first written against; the top-down loader has no spill, but the ids
// stay as they were so each instance keeps one name across the history.
struct DiffParams {
  size_t n;
  size_t dim;
  uint64_t seed;
  const char* name;
};

// Print the id, not the struct's bytes: the bytes hold a pointer, which
// would make the listed test names change from build to build.
void PrintTo(const DiffParams& p, std::ostream* os) { *os << p.name; }

class TopDownBulkLoadSweep : public ::testing::TestWithParam<DiffParams> {};

TEST_P(TopDownBulkLoadSweep, KeepsInvariantsAndRebuildsSameBytes) {
  const DiffParams p = GetParam();
  const Dataset data = MakeData(p.n, p.dim, p.seed);
  const RTreeConfig config = SmallConfig();

  const RPlusTree tree = Build(data, config);
  ASSERT_TRUE(tree.CheckInvariants().ok());
  EXPECT_EQ(tree.size(), p.n);
  testutil::ExpectTreeLeafInvariants(tree, config.min_leaf);
  const std::vector<char> want = SnapshotBytes(tree);
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(SnapshotBytes(Build(data, config)), want);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TopDownBulkLoadSweep,
    ::testing::Values(
        // Small 2-D data: a shallow tree.
        DiffParams{300, 2, 11, "n300_d2_s11_r1024_f64"},
        // Larger 2-D data: the root's pieces are deep subtrees.
        DiffParams{3000, 2, 11, "n3000_d2_s11_r64_f64"},
        // 1-D data: every cut is on the one axis.
        DiffParams{2000, 1, 29, "n2000_d1_s29_r32_f10"},
        // Higher dimensionality.
        DiffParams{1500, 5, 29, "n1500_d5_s29_r128_f64"},
        // Duplicate-heavy 1-D data: unsplittable groups, overfull leaves.
        DiffParams{900, 1, 11, "n900_d1_s11_r64_f32"}),
    [](const ::testing::TestParamInfo<DiffParams>& info) {
      return std::string(info.param.name);
    });

TEST(TopDownBulkLoadTest, EmptyAndTinyDatasets) {
  const RTreeConfig config = SmallConfig();
  Dataset empty(Schema::Numeric(2));
  EXPECT_EQ(Build(empty, config).size(), 0u);

  const Dataset tiny = MakeData(7, 2, 3);  // fits one (root) leaf
  EXPECT_EQ(Build(tiny, config).height(), 1);
}

TEST(TopDownBulkLoadTest, AllIdenticalPointsYieldOneOverfullLeaf) {
  Dataset d(Schema::Numeric(2));
  for (size_t i = 0; i < 50; ++i) d.Append({1.0, 2.0}, 0);
  const RPlusTree tree = Build(d, SmallConfig());
  EXPECT_EQ(tree.size(), 50u);
  ASSERT_TRUE(tree.CheckInvariants().ok());
  EXPECT_EQ(tree.OrderedLeaves().size(), 1u);
}

TEST(TopDownBulkLoadTest, DuplicateCurveKeysStayEquivalentToTupleLoad) {
  // A spread base plus a growing pile of identical points: the duplicates
  // concentrate in one leaf neighborhood and cannot be separated by any
  // cut. The bulk-loaded tree may arrange the
  // records differently from the tuple-loaded one (unsplittable groups go
  // overfull, never underfull or double-covered), but it must hold the
  // same records and answer every range query the same.
  Dataset d(Schema::Numeric(2));
  Rng rng(17);
  for (size_t i = 0; i < 1800; ++i) {
    if (i % 6 == 5) {
      d.Append({42.5, 42.5}, static_cast<int32_t>(i % 4));
    } else {
      d.Append({rng.UniformDouble(0, 100), rng.UniformDouble(0, 100)},
               static_cast<int32_t>(i % 4));
    }
  }
  const RTreeConfig config = SmallConfig();
  RPlusTree tuple(2, config);
  for (size_t i = 0; i < d.num_records(); ++i) {
    tuple.Insert(d.row(i), i, d.sensitive(i));
  }
  const Domain domain = d.ComputeDomain();
  testutil::ExpectEquivalentTrees(Build(d, config), tuple, config.min_leaf,
                                  domain, /*seed=*/1);
}

TEST(TopDownBulkLoadTest, LeafConstraintRespected) {
  // Admissibility gate: every leaf must keep >= 2 distinct sensitive
  // values; a cut producing a single-valued half is vetoed.
  RTreeConfig config = SmallConfig();
  config.max_leaf = 15;
  config.leaf_admissible = [](std::span<const int32_t> codes) {
    for (size_t i = 1; i < codes.size(); ++i) {
      if (codes[i] != codes[0]) return true;
    }
    return codes.empty();
  };
  Dataset d(Schema::Numeric(1));
  Rng rng(12);
  for (size_t i = 0; i < 400; ++i) {
    const double x = rng.UniformDouble(0, 1000);
    d.Append({x}, x < 500 ? 0 : 1);
  }
  const RPlusTree tree = Build(d, config);
  ASSERT_TRUE(tree.CheckInvariants().ok());
  for (const Node* leaf : tree.OrderedLeaves()) {
    const auto codes = leaf->sensitive();
    bool diverse = codes.empty();
    for (size_t i = 1; i < codes.size(); ++i) {
      if (codes[i] != codes[0]) diverse = true;
    }
    EXPECT_TRUE(diverse);
  }
}

TEST(TopDownBulkLoadTest, LeavesIgnoreInputOrder) {
  // Every cut is a pure function of the record multiset, so a row-permuted
  // copy of the data (rids mapped back) must yield the same leaves in the
  // same order; only the order of records inside a leaf may differ. This
  // is why the loader needs no presort.
  Dataset data(Schema::Numeric(3));
  Rng rng(23);
  for (size_t i = 0; i < 3000; ++i) {
    // Coarse grids: most coordinates repeat, many points coincide.
    data.Append({std::floor(rng.UniformDouble(0, 10)),
                 std::floor(rng.UniformDouble(0, 4)) * 25,
                 i % 4 == 0 ? 7.0 : rng.UniformDouble(0, 100)},
                static_cast<int32_t>(rng.Uniform(5)));
  }
  std::vector<RecordId> perm(data.num_records());
  std::iota(perm.begin(), perm.end(), 0);
  for (size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.Uniform(i)]);
  }
  Dataset permuted(data.schema());
  for (const RecordId r : perm) permuted.Append(data.row(r), data.sensitive(r));

  const RTreeConfig config = SmallConfig();
  const RPlusTree want = Build(data, config);
  const RPlusTree got = Build(permuted, config);
  ASSERT_TRUE(got.CheckInvariants().ok());
  EXPECT_EQ(got.height(), want.height());
  const auto want_leaves = want.OrderedLeaves();
  const auto got_leaves = got.OrderedLeaves();
  ASSERT_EQ(got_leaves.size(), want_leaves.size());
  for (size_t l = 0; l < want_leaves.size(); ++l) {
    std::vector<uint64_t> want_rids(want_leaves[l]->rids().begin(),
                                    want_leaves[l]->rids().end());
    std::vector<uint64_t> got_rids;
    for (const uint64_t rid : got_leaves[l]->rids()) {
      got_rids.push_back(perm[rid]);
    }
    std::sort(want_rids.begin(), want_rids.end());
    std::sort(got_rids.begin(), got_rids.end());
    EXPECT_EQ(got_rids, want_rids) << "leaf " << l;
    EXPECT_EQ(Mbr::FromView(got_leaves[l]->mbr()),
              Mbr::FromView(want_leaves[l]->mbr()));
    EXPECT_EQ(Mbr::FromView(got_leaves[l]->region()),
              Mbr::FromView(want_leaves[l]->region()));
  }
}

}  // namespace
}  // namespace kanon
