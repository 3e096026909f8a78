// Differential serial-vs-parallel harness for the top-down bulk load. The
// contract under test: for fixed records and configuration,
// TopDownBulkLoad produces a byte-identical serialized snapshot at EVERY
// thread count — parallelism is an implementation detail, never an
// observable one — and the same leaves for any input order of the
// records. Each built tree is additionally run through the shared
// structural invariants (tests/invariants.h).

#include "index/bulk_load.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <ostream>
#include <vector>

#include "anon/rtree_anonymizer.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "data/agrawal_generator.h"
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

RPlusTree BuildWithThreads(const Dataset& data, const RTreeConfig& config,
                           size_t threads) {
  ThreadPool workers(threads > 1 ? threads - 1 : 0);
  return TopDownBulkLoad(DatasetRecords(data), config,
                         threads > 1 ? &workers : nullptr);
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

class ParallelBulkLoadDifferential
    : public ::testing::TestWithParam<DiffParams> {};

TEST_P(ParallelBulkLoadDifferential, SnapshotByteIdenticalAcrossThreads) {
  const DiffParams p = GetParam();
  const Dataset data = MakeData(p.n, p.dim, p.seed);
  const RTreeConfig config = SmallConfig();

  const RPlusTree serial = BuildWithThreads(data, config, 1);
  ASSERT_TRUE(serial.CheckInvariants().ok());
  EXPECT_EQ(serial.size(), p.n);
  testutil::ExpectTreeLeafInvariants(serial, config.min_leaf);
  const std::vector<char> want = SnapshotBytes(serial);
  ASSERT_FALSE(want.empty());

  for (const size_t threads : {2, 4, 8}) {
    const RPlusTree parallel = BuildWithThreads(data, config, threads);
    ASSERT_TRUE(parallel.CheckInvariants().ok());
    EXPECT_EQ(parallel.size(), p.n);
    EXPECT_EQ(SnapshotBytes(parallel), want) << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelBulkLoadDifferential,
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

TEST(ParallelBulkLoadTest, EmptyAndTinyDatasets) {
  const RTreeConfig config = SmallConfig();
  Dataset empty(Schema::Numeric(2));
  EXPECT_EQ(BuildWithThreads(empty, config, 4).size(), 0u);

  const Dataset tiny = MakeData(7, 2, 3);  // fits one (root) leaf
  const RPlusTree tiny_serial = BuildWithThreads(tiny, config, 1);
  const RPlusTree tiny_parallel = BuildWithThreads(tiny, config, 8);
  EXPECT_EQ(tiny_serial.height(), 1);
  EXPECT_EQ(SnapshotBytes(tiny_parallel), SnapshotBytes(tiny_serial));
}

TEST(ParallelBulkLoadTest, AllIdenticalPointsYieldOneOverfullLeaf) {
  Dataset d(Schema::Numeric(2));
  for (size_t i = 0; i < 50; ++i) d.Append({1.0, 2.0}, 0);
  const RPlusTree tree = BuildWithThreads(d, SmallConfig(), 4);
  EXPECT_EQ(tree.size(), 50u);
  ASSERT_TRUE(tree.CheckInvariants().ok());
  const RPlusTree serial = BuildWithThreads(d, SmallConfig(), 1);
  EXPECT_EQ(SnapshotBytes(tree), SnapshotBytes(serial));
}

TEST(ParallelBulkLoadTest, DuplicateCurveKeysStayEquivalentToTupleLoad) {
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
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    const RPlusTree bulk = BuildWithThreads(d, config, threads);
    testutil::ExpectEquivalentTrees(bulk, tuple, config.min_leaf, domain,
                                    /*seed=*/threads);
  }
}

TEST(ParallelBulkLoadTest, LeafConstraintRespectedAtEveryThreadCount) {
  // Admissibility gate: every leaf must keep >= 2 distinct sensitive
  // values; a cut producing a single-valued half is vetoed. The gate is a
  // pure function of the record multiset, so it too must be
  // thread-count-invariant.
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
  const RPlusTree serial = BuildWithThreads(d, config, 1);
  ASSERT_TRUE(serial.CheckInvariants().ok());
  for (const Node* leaf : serial.OrderedLeaves()) {
    const auto codes = leaf->sensitive();
    bool diverse = codes.empty();
    for (size_t i = 1; i < codes.size(); ++i) {
      if (codes[i] != codes[0]) diverse = true;
    }
    EXPECT_TRUE(diverse);
  }
  const RPlusTree parallel = BuildWithThreads(d, config, 4);
  EXPECT_EQ(SnapshotBytes(parallel), SnapshotBytes(serial));
}

TEST(ParallelBulkLoadTest, LeavesIgnoreInputOrder) {
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
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    const RPlusTree want = BuildWithThreads(data, config, threads);
    const RPlusTree got = BuildWithThreads(permuted, config, threads);
    ASSERT_TRUE(got.CheckInvariants().ok());
    EXPECT_EQ(got.height(), want.height());
    const auto want_leaves = want.OrderedLeaves();
    const auto got_leaves = got.OrderedLeaves();
    ASSERT_EQ(got_leaves.size(), want_leaves.size()) << "threads=" << threads;
    for (size_t l = 0; l < want_leaves.size(); ++l) {
      std::vector<uint64_t> want_rids(want_leaves[l]->rids().begin(),
                                      want_leaves[l]->rids().end());
      std::vector<uint64_t> got_rids;
      for (const uint64_t rid : got_leaves[l]->rids()) {
        got_rids.push_back(perm[rid]);
      }
      std::sort(want_rids.begin(), want_rids.end());
      std::sort(got_rids.begin(), got_rids.end());
      EXPECT_EQ(got_rids, want_rids) << "threads=" << threads << " leaf " << l;
      EXPECT_EQ(Mbr::FromView(got_leaves[l]->mbr()),
                Mbr::FromView(want_leaves[l]->mbr()));
      EXPECT_EQ(Mbr::FromView(got_leaves[l]->region()),
                Mbr::FromView(want_leaves[l]->region()));
    }
  }
}

TEST(ParallelBulkLoadTest, AnonymizerBackendIsThreadCountInvariant) {
  // End-to-end through RTreeAnonymizer: the published partitions (rids
  // and boxes) must not depend on --threads.
  const Dataset data = AgrawalGenerator(7).Generate(4000);
  RTreeAnonymizerOptions options;
  options.backend = RTreeAnonymizerOptions::Backend::kTopDownBulkLoad;
  options.threads = 1;
  auto serial = RTreeAnonymizer(options).Anonymize(data, 10);
  ASSERT_TRUE(serial.ok()) << serial.status();
  testutil::ExpectPartitionInvariants(data, *serial, 10);
  // 64 exceeds max_fanout: the pool is capped, the output is not changed.
  for (const size_t threads : {size_t{4}, size_t{64}}) {
    options.threads = threads;
    auto parallel = RTreeAnonymizer(options).Anonymize(data, 10);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    ASSERT_EQ(parallel->num_partitions(), serial->num_partitions());
    for (size_t i = 0; i < serial->partitions.size(); ++i) {
      EXPECT_EQ(parallel->partitions[i].rids, serial->partitions[i].rids)
          << "threads=" << threads;
      EXPECT_EQ(parallel->partitions[i].box, serial->partitions[i].box);
    }
  }
}

TEST(ParallelBulkLoadTest, MatchesBufferTreeCoverageGuarantees) {
  // The top-down backend must meet the same published-output contract as
  // the default backend (not the same partitions — the same guarantees).
  const Dataset data = MakeData(2500, 3, 17);
  RTreeAnonymizerOptions options;
  options.backend = RTreeAnonymizerOptions::Backend::kTopDownBulkLoad;
  options.threads = 4;
  auto ps = RTreeAnonymizer(options).Anonymize(data, 10);
  ASSERT_TRUE(ps.ok()) << ps.status();
  testutil::ExpectPartitionInvariants(data, *ps, 10);
}

}  // namespace
}  // namespace kanon
