// Differential serial-vs-parallel harness for the bulk-load pipeline
// (ISSUE 4 tentpole). The contract under test: for a fixed dataset and
// configuration, SortedBulkLoadTree produces a byte-identical serialized
// snapshot at EVERY thread count — parallelism is an implementation
// detail, never an observable one. Each built tree is additionally run
// through the shared structural invariants (tests/invariants.h).

#include "index/bulk_load.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "anon/rtree_anonymizer.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "data/agrawal_generator.h"
#include "differential.h"
#include "invariants.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"

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

StatusOr<RPlusTree> BuildWithThreads(const Dataset& data,
                                     const RTreeConfig& config,
                                     size_t threads, size_t run_records,
                                     size_t pool_frames) {
  MemPager pager(512);
  BufferPool pool(&pager, pool_frames);
  ThreadPool workers(threads > 1 ? threads - 1 : 0);
  return SortedBulkLoadTree(data, config, CurveOrder::kHilbert,
                            /*grid_bits=*/10, &pool, run_records,
                            threads > 1 ? &workers : nullptr);
}

struct DiffParams {
  size_t n;
  size_t dim;
  uint64_t seed;
  size_t run_records;
  size_t pool_frames;
};

class ParallelBulkLoadDifferential
    : public ::testing::TestWithParam<DiffParams> {};

TEST_P(ParallelBulkLoadDifferential, SnapshotByteIdenticalAcrossThreads) {
  const DiffParams p = GetParam();
  const Dataset data = MakeData(p.n, p.dim, p.seed);
  const RTreeConfig config = SmallConfig();

  auto serial =
      BuildWithThreads(data, config, 1, p.run_records, p.pool_frames);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ASSERT_TRUE(serial->CheckInvariants().ok());
  EXPECT_EQ(serial->size(), p.n);
  testutil::ExpectTreeLeafInvariants(*serial, config.min_leaf);
  const std::vector<char> want = SnapshotBytes(*serial);
  ASSERT_FALSE(want.empty());

  for (const size_t threads : {2, 4, 8}) {
    auto parallel =
        BuildWithThreads(data, config, threads, p.run_records, p.pool_frames);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    ASSERT_TRUE(parallel->CheckInvariants().ok());
    EXPECT_EQ(parallel->size(), p.n);
    EXPECT_EQ(SnapshotBytes(*parallel), want) << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelBulkLoadDifferential,
    ::testing::Values(
        // Single in-memory run, no merge.
        DiffParams{300, 2, 11, 1024, 64},
        // Many runs, single merge pass.
        DiffParams{3000, 2, 11, 64, 64},
        // Many runs and a pool small enough to force intermediate passes.
        DiffParams{2000, 1, 29, 32, 10},
        // Higher dimensionality (curve key truncation in play).
        DiffParams{1500, 5, 29, 128, 64},
        // Duplicate-heavy 1-D data: unsplittable groups, overfull leaves.
        DiffParams{900, 1, 11, 64, 32}),
    [](const ::testing::TestParamInfo<DiffParams>& info) {
      std::string name = "n";
      name += std::to_string(info.param.n);
      name += "_d";
      name += std::to_string(info.param.dim);
      name += "_s";
      name += std::to_string(info.param.seed);
      name += "_r";
      name += std::to_string(info.param.run_records);
      name += "_f";
      name += std::to_string(info.param.pool_frames);
      return name;
    });

TEST(ParallelBulkLoadTest, EmptyAndTinyDatasets) {
  const RTreeConfig config = SmallConfig();
  Dataset empty(Schema::Numeric(2));
  auto tree = BuildWithThreads(empty, config, 4, 64, 16);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->size(), 0u);

  const Dataset tiny = MakeData(7, 2, 3);  // fits one (root) leaf
  auto tiny_serial = BuildWithThreads(tiny, config, 1, 64, 16);
  auto tiny_parallel = BuildWithThreads(tiny, config, 8, 64, 16);
  ASSERT_TRUE(tiny_serial.ok());
  ASSERT_TRUE(tiny_parallel.ok());
  EXPECT_EQ(tiny_serial->height(), 1);
  EXPECT_EQ(SnapshotBytes(*tiny_parallel), SnapshotBytes(*tiny_serial));
}

TEST(ParallelBulkLoadTest, AllIdenticalPointsYieldOneOverfullLeaf) {
  Dataset d(Schema::Numeric(2));
  for (size_t i = 0; i < 50; ++i) d.Append({1.0, 2.0}, 0);
  auto tree = BuildWithThreads(d, SmallConfig(), 4, 16, 16);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->size(), 50u);
  ASSERT_TRUE(tree->CheckInvariants().ok());
  auto serial = BuildWithThreads(d, SmallConfig(), 1, 16, 16);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(SnapshotBytes(*tree), SnapshotBytes(*serial));
}

TEST(ParallelBulkLoadTest, DuplicateCurveKeysStayEquivalentToTupleLoad) {
  // A spread base plus a growing pile of identical points: the duplicates
  // share one curve key, concentrate in one leaf neighborhood and force
  // key ties across cut boundaries. The bulk-loaded tree may arrange the
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
    auto bulk = BuildWithThreads(d, config, threads, 256, 16);
    ASSERT_TRUE(bulk.ok()) << bulk.status();
    testutil::ExpectEquivalentTrees(*bulk, tuple, config.min_leaf, domain,
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
  auto serial = BuildWithThreads(d, config, 1, 64, 32);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(serial->CheckInvariants().ok());
  for (const Node* leaf : serial->OrderedLeaves()) {
    bool diverse = leaf->sensitive.empty();
    for (size_t i = 1; i < leaf->sensitive.size(); ++i) {
      if (leaf->sensitive[i] != leaf->sensitive[0]) diverse = true;
    }
    EXPECT_TRUE(diverse);
  }
  auto parallel = BuildWithThreads(d, config, 4, 64, 32);
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(SnapshotBytes(*parallel), SnapshotBytes(*serial));
}

TEST(ParallelBulkLoadTest, AnonymizerBackendIsThreadCountInvariant) {
  // End-to-end through RTreeAnonymizer: the published partitions (rids
  // and boxes) must not depend on --threads.
  const Dataset data = AgrawalGenerator(7).Generate(4000);
  RTreeAnonymizerOptions options;
  options.backend = RTreeAnonymizerOptions::Backend::kSortedBulkLoad;
  // Runs hold the 1,024-record floor, so 4,000 records span four runs.
  options.memory_budget_bytes = 256 << 10;
  options.threads = 1;
  auto serial = RTreeAnonymizer(options).Anonymize(data, 10);
  ASSERT_TRUE(serial.ok()) << serial.status();
  testutil::ExpectPartitionInvariants(data, *serial, 10);
  options.threads = 4;
  auto parallel = RTreeAnonymizer(options).Anonymize(data, 10);
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  ASSERT_EQ(parallel->num_partitions(), serial->num_partitions());
  for (size_t i = 0; i < serial->partitions.size(); ++i) {
    EXPECT_EQ(parallel->partitions[i].rids, serial->partitions[i].rids);
    EXPECT_EQ(parallel->partitions[i].box, serial->partitions[i].box);
  }
}

TEST(ParallelBulkLoadTest, MatchesBufferTreeCoverageGuarantees) {
  // The sorted backend must meet the same published-output contract as
  // the default backend (not the same partitions — the same guarantees).
  const Dataset data = MakeData(2500, 3, 17);
  RTreeAnonymizerOptions options;
  options.backend = RTreeAnonymizerOptions::Backend::kSortedBulkLoad;
  options.threads = 4;
  auto ps = RTreeAnonymizer(options).Anonymize(data, 10);
  ASSERT_TRUE(ps.ok()) << ps.status();
  testutil::ExpectPartitionInvariants(data, *ps, 10);
}

}  // namespace
}  // namespace kanon
