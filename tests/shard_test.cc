#include "shard/sharded_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/random.h"
#include "shard/shard_router.h"
#include "shard/stitched_snapshot.h"

namespace kanon {
namespace {

Domain SquareDomain(double lo, double hi) {
  Domain d;
  d.lo = {lo, lo};
  d.hi = {hi, hi};
  return d;
}

ServiceOptions SmallServiceOptions(size_t k) {
  ServiceOptions options;
  options.anonymizer.base_k = k;
  options.queue_capacity = 256;
  options.max_batch = 16;
  options.snapshot_every = 0;  // publish on demand
  return options;
}

ShardedServiceOptions Sharded(size_t k, size_t shards,
                              ShardBy by = ShardBy::kHash) {
  ShardedServiceOptions options;
  options.service = SmallServiceOptions(k);
  options.sharding.num_shards = shards;
  options.sharding.shard_by = by;
  return options;
}

/// The deterministic pseudo-grid stream the HTTP tests also use.
std::vector<double> GridPoint(size_t i) {
  return {static_cast<double>(i % 97), static_cast<double>((i * 7) % 89)};
}

TEST(ShardByTest, NamesRoundTrip) {
  EXPECT_STREQ(ShardByName(ShardBy::kHash), "hash");
  EXPECT_STREQ(ShardByName(ShardBy::kRange), "range");
  ASSERT_TRUE(ShardByFromName("hash").ok());
  EXPECT_EQ(*ShardByFromName("hash"), ShardBy::kHash);
  ASSERT_TRUE(ShardByFromName("range").ok());
  EXPECT_EQ(*ShardByFromName("range"), ShardBy::kRange);
  EXPECT_FALSE(ShardByFromName("roundrobin").ok());
  EXPECT_FALSE(ShardByFromName("").ok());
}

TEST(ShardRouterTest, HashRoutingIsDeterministicAndCoversAllShards) {
  ShardingOptions options;
  options.num_shards = 8;
  const ShardRouter router(options, SquareDomain(0, 100));
  std::vector<size_t> counts(8, 0);
  for (size_t i = 0; i < 4000; ++i) {
    const std::vector<double> p = GridPoint(i);
    const size_t shard = router.ShardOf(p);
    ASSERT_LT(shard, 8u);
    EXPECT_EQ(shard, router.ShardOf(p)) << "routing must be a pure function";
    ++counts[shard];
  }
  // FNV over the full point should spread a structured grid roughly
  // uniformly; every shard must see a healthy slice of the stream.
  for (size_t s = 0; s < counts.size(); ++s) {
    EXPECT_GT(counts[s], 4000u / 8 / 4) << "shard " << s << " starved";
  }
}

TEST(ShardRouterTest, HashCanonicalizesNegativeZero) {
  ShardingOptions options;
  options.num_shards = 5;
  const ShardRouter router(options, SquareDomain(-10, 10));
  const std::vector<double> pos = {0.0, 3.0};
  const std::vector<double> neg = {-0.0, 3.0};
  EXPECT_EQ(router.ShardOf(pos), router.ShardOf(neg));
}

TEST(ShardRouterTest, RangeRoutingBucketsFirstAttribute) {
  ShardingOptions options;
  options.num_shards = 4;
  options.shard_by = ShardBy::kRange;
  const ShardRouter router(options, SquareDomain(0, 100));
  // Equi-width buckets [0,25) [25,50) [50,75) [75,100].
  EXPECT_EQ(router.ShardOf(std::vector<double>{0.0, 99.0}), 0u);
  EXPECT_EQ(router.ShardOf(std::vector<double>{24.9, 0.0}), 0u);
  EXPECT_EQ(router.ShardOf(std::vector<double>{25.0, 0.0}), 1u);
  EXPECT_EQ(router.ShardOf(std::vector<double>{60.0, 0.0}), 2u);
  EXPECT_EQ(router.ShardOf(std::vector<double>{99.9, 0.0}), 3u);
  // The second attribute must not influence range routing.
  EXPECT_EQ(router.ShardOf(std::vector<double>{60.0, -1e9}), 2u);
}

TEST(ShardRouterTest, RangeRoutingClampsOutliersAndNan) {
  ShardingOptions options;
  options.num_shards = 4;
  options.shard_by = ShardBy::kRange;
  const ShardRouter router(options, SquareDomain(0, 100));
  EXPECT_EQ(router.ShardOf(std::vector<double>{-50.0, 0.0}), 0u);
  EXPECT_EQ(router.ShardOf(std::vector<double>{100.0, 0.0}), 3u);
  EXPECT_EQ(router.ShardOf(std::vector<double>{1e12, 0.0}), 3u);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(router.ShardOf(std::vector<double>{nan, 0.0}), 0u);
}

TEST(ShardRouterTest, SingleShardAndDegenerateDomainAlwaysRouteToZero) {
  ShardingOptions one;
  one.num_shards = 1;
  const ShardRouter single(one, SquareDomain(0, 100));
  EXPECT_EQ(single.ShardOf(std::vector<double>{42.0, 17.0}), 0u);

  ShardingOptions range;
  range.num_shards = 3;
  range.shard_by = ShardBy::kRange;
  const ShardRouter degenerate(range, SquareDomain(5, 5));  // zero width
  for (double v : {-1.0, 5.0, 9.0}) {
    EXPECT_LT(degenerate.ShardOf(std::vector<double>{v, 5.0}), 3u);
  }
}

/// Structural equality of two releases — partition count, sizes, record
/// ids and boxes. Byte-level equality of the serialized form is pinned in
/// http_server_test.cc through PartitionsJson; this is the same statement
/// one layer down.
void ExpectSameRelease(const PartitionSet& a, const PartitionSet& b) {
  ASSERT_EQ(a.partitions.size(), b.partitions.size());
  for (size_t p = 0; p < a.partitions.size(); ++p) {
    EXPECT_EQ(a.partitions[p].rids, b.partitions[p].rids) << "partition " << p;
    ASSERT_EQ(a.partitions[p].box.dim(), b.partitions[p].box.dim());
    for (size_t d = 0; d < a.partitions[p].box.dim(); ++d) {
      EXPECT_EQ(a.partitions[p].box.lo(d), b.partitions[p].box.lo(d));
      EXPECT_EQ(a.partitions[p].box.hi(d), b.partitions[p].box.hi(d));
    }
  }
}

TEST(ShardedServiceTest, SingleShardMatchesUnshardedService) {
  auto sharded_or = ShardedAnonymizationService::Create(
      2, SquareDomain(0, 100), Sharded(4, 1));
  ASSERT_TRUE(sharded_or.ok()) << sharded_or.status();
  auto plain_or = AnonymizationService::Create(2, SquareDomain(0, 100),
                                               SmallServiceOptions(4));
  ASSERT_TRUE(plain_or.ok());

  for (size_t i = 0; i < 300; ++i) {
    const std::vector<double> p = GridPoint(i);
    ASSERT_TRUE((*sharded_or)->Ingest(p, static_cast<int32_t>(i % 5)).ok());
    ASSERT_TRUE((*plain_or)->Ingest(p, static_cast<int32_t>(i % 5)).ok());
  }
  const auto stitched = (*sharded_or)->PublishNow();
  const auto snapshot = (*plain_or)->PublishNow();
  ASSERT_NE(stitched, nullptr);
  ASSERT_NE(snapshot, nullptr);

  EXPECT_EQ(stitched->info().records, snapshot->info().records);
  EXPECT_EQ(stitched->info().epoch, snapshot->info().epoch);
  for (const size_t k1 : {size_t{4}, size_t{9}, size_t{40}}) {
    ExpectSameRelease(stitched->Release(k1), snapshot->Release(k1));
  }
}

class ShardedServiceFanoutTest : public ::testing::TestWithParam<size_t> {};

INSTANTIATE_TEST_SUITE_P(Fanout, ShardedServiceFanoutTest,
                         ::testing::Values(2, 4, 8),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "Shards" + std::to_string(info.param);
                         });

TEST_P(ShardedServiceFanoutTest, StitchedReleaseSatisfiesKBound) {
  const size_t shards = GetParam();
  constexpr size_t kBaseK = 5;
  constexpr size_t kRecords = 1200;
  auto service_or = ShardedAnonymizationService::Create(
      2, SquareDomain(0, 100), Sharded(kBaseK, shards));
  ASSERT_TRUE(service_or.ok()) << service_or.status();
  ShardedAnonymizationService& service = **service_or;

  for (size_t i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(service.Ingest(GridPoint(i), static_cast<int32_t>(i % 5)).ok());
  }
  const auto stitched = service.PublishNow();
  ASSERT_NE(stitched, nullptr);
  const StitchedInfo& info = stitched->info();
  EXPECT_EQ(info.num_shards, shards);

  // Conservation: every record landed in exactly one shard's snapshot
  // (with 1200 records and k=5, every shard publishes).
  uint64_t sum = 0;
  for (size_t s = 0; s < shards; ++s) {
    EXPECT_GT(info.shard_epochs[s], 0u) << "shard " << s << " never published";
    sum += info.shard_records[s];
  }
  EXPECT_EQ(sum, kRecords);
  EXPECT_EQ(info.records, kRecords);
  EXPECT_EQ(service.inserted(), kRecords);

  // The tentpole guarantee: stitched releases keep the k bound at every
  // granularity because groups never cross shards.
  for (const size_t k1 : {kBaseK, size_t{10}, size_t{50}}) {
    const PartitionSet release = stitched->Release(k1);
    EXPECT_EQ(release.total_records(), kRecords);
    EXPECT_TRUE(release.CheckKAnonymous(k1).ok()) << "k1=" << k1;
  }

  // Aggregate stats add up across shards.
  const ShardedServiceStats stats = service.Stats();
  EXPECT_EQ(stats.total.inserted, kRecords);
  EXPECT_EQ(stats.shards.size(), shards);
  // Every counter merges by its rule: counts and times sum, build time and
  // staleness take the worst shard, flags are true if any shard's is.
  ServiceStats want;
  for (const ServiceStats& s : stats.shards) {
    want.enqueued += s.enqueued;
    want.rejected += s.rejected;
    want.inserted += s.inserted;
    want.batches += s.batches;
    want.snapshots += s.snapshots;
    want.queue_depth += s.queue_depth;
    want.recovered += s.recovered;
    want.wal_appended += s.wal_appended;
    want.wal_bytes += s.wal_bytes;
    want.wal_syncs += s.wal_syncs;
    want.wal_synced_lsn += s.wal_synced_lsn;
    want.checkpoints += s.checkpoints;
    want.last_checkpoint_lsn += s.last_checkpoint_lsn;
    want.wal_retries += s.wal_retries;
    want.wal_recoveries += s.wal_recoveries;
    want.unavailable += s.unavailable;
    want.dropped += s.dropped;
    want.queue_wait_ms += s.queue_wait_ms;
    want.apply_ms += s.apply_ms;
    want.snapshot_build_ms_total += s.snapshot_build_ms_total;
    want.last_snapshot_build_ms =
        std::max(want.last_snapshot_build_ms, s.last_snapshot_build_ms);
    want.snapshot_age_s = std::max(want.snapshot_age_s, s.snapshot_age_s);
    want.durable = want.durable || s.durable;
    want.wal_poisoned = want.wal_poisoned || s.wal_poisoned;
  }
  const ServiceStats& total = stats.total;
  EXPECT_EQ(total.enqueued, want.enqueued);
  EXPECT_EQ(total.rejected, want.rejected);
  EXPECT_EQ(total.inserted, want.inserted);
  EXPECT_EQ(total.batches, want.batches);
  EXPECT_EQ(total.snapshots, want.snapshots);
  EXPECT_EQ(total.queue_depth, want.queue_depth);
  EXPECT_EQ(total.recovered, want.recovered);
  EXPECT_EQ(total.wal_appended, want.wal_appended);
  EXPECT_EQ(total.wal_bytes, want.wal_bytes);
  EXPECT_EQ(total.wal_syncs, want.wal_syncs);
  EXPECT_EQ(total.wal_synced_lsn, want.wal_synced_lsn);
  EXPECT_EQ(total.checkpoints, want.checkpoints);
  EXPECT_EQ(total.last_checkpoint_lsn, want.last_checkpoint_lsn);
  EXPECT_EQ(total.wal_retries, want.wal_retries);
  EXPECT_EQ(total.wal_recoveries, want.wal_recoveries);
  EXPECT_EQ(total.unavailable, want.unavailable);
  EXPECT_EQ(total.dropped, want.dropped);
  EXPECT_DOUBLE_EQ(total.queue_wait_ms, want.queue_wait_ms);
  EXPECT_DOUBLE_EQ(total.apply_ms, want.apply_ms);
  EXPECT_DOUBLE_EQ(total.snapshot_build_ms_total,
                   want.snapshot_build_ms_total);
  EXPECT_DOUBLE_EQ(total.last_snapshot_build_ms, want.last_snapshot_build_ms);
  EXPECT_DOUBLE_EQ(total.snapshot_age_s, want.snapshot_age_s);
  EXPECT_EQ(total.durable, want.durable);
  EXPECT_EQ(total.wal_poisoned, want.wal_poisoned);
  service.Stop();
  EXPECT_EQ(service.health(), ServiceHealth::kStopped);
}

// Publication never changes a shard's tree, so the stitched release after
// Stop is the same at any per-shard publication cadence, and each cadence's
// release is k-bound and covers every record exactly once.
TEST(ShardedServiceTest, StitchedReleaseIsPublicationCadenceInvariant) {
  constexpr size_t kBaseK = 5;
  constexpr size_t kRecords = 2400;
  std::vector<std::shared_ptr<const StitchedSnapshot>> finals;
  for (const uint64_t cadence : {uint64_t{0}, uint64_t{150}, uint64_t{700}}) {
    ShardedServiceOptions options = Sharded(kBaseK, 4);
    options.service.snapshot_every = cadence;
    auto service_or = ShardedAnonymizationService::Create(
        2, SquareDomain(0, 100), options);
    ASSERT_TRUE(service_or.ok()) << service_or.status();
    for (size_t i = 0; i < kRecords; ++i) {
      ASSERT_TRUE((*service_or)
                      ->Ingest(GridPoint(i), static_cast<int32_t>(i % 5))
                      .ok());
    }
    (*service_or)->Stop();
    finals.push_back((*service_or)->CurrentStitched());
    ASSERT_NE(finals.back(), nullptr);
    EXPECT_EQ(finals.back()->info().records, kRecords);
  }
  for (const size_t k1 : {kBaseK, size_t{20}, size_t{200}}) {
    const PartitionSet want = finals[0]->Release(k1);
    EXPECT_EQ(want.total_records(), kRecords);
    EXPECT_TRUE(want.CheckKAnonymous(k1).ok()) << "k1=" << k1;
    for (size_t c = 1; c < finals.size(); ++c) {
      ExpectSameRelease(finals[c]->Release(k1), want);
    }
  }
}

TEST(ShardedServiceTest, RangeShardingKeepsShardsSpatiallyDisjoint) {
  auto service_or = ShardedAnonymizationService::Create(
      2, SquareDomain(0, 100), Sharded(5, 4, ShardBy::kRange));
  ASSERT_TRUE(service_or.ok()) << service_or.status();
  ShardedAnonymizationService& service = **service_or;
  Rng rng(7);
  for (size_t i = 0; i < 800; ++i) {
    const std::vector<double> p = {rng.UniformDouble(0, 100),
                                   rng.UniformDouble(0, 100)};
    ASSERT_TRUE(service.Ingest(p).ok());
  }
  const auto stitched = service.PublishNow();
  ASSERT_NE(stitched, nullptr);
  // Each shard's released boxes stay inside its attribute-0 bucket, modulo
  // compaction which can only shrink boxes.
  const auto& parts = stitched->parts();
  for (size_t s = 0; s < 4; ++s) {
    ASSERT_NE(parts[s], nullptr);
    const PartitionSet release = parts[s]->Release(5);
    for (const Partition& part : release.partitions) {
      EXPECT_GE(part.box.lo(0), 25.0 * static_cast<double>(s) - 1e-9);
      EXPECT_LE(part.box.hi(0), 25.0 * static_cast<double>(s + 1) + 1e-9);
    }
  }
}

TEST(ShardedServiceTest, ZeroShardsIsRejected) {
  ShardedServiceOptions options = Sharded(5, 1);
  options.sharding.num_shards = 0;
  auto service_or = ShardedAnonymizationService::Create(
      2, SquareDomain(0, 100), options);
  EXPECT_FALSE(service_or.ok());
  EXPECT_EQ(service_or.status().code(), StatusCode::kInvalidArgument);
}

class ShardDurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("kanon_shard_durability_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  ShardedServiceOptions DurableOptions(size_t shards) {
    ShardedServiceOptions options = Sharded(5, shards);
    options.service.durability.wal_dir = dir_;
    options.service.durability.fsync_every = 8;
    options.service.durability.checkpoint_every = 200;
    return options;
  }

  std::string dir_;
};

TEST_F(ShardDurabilityTest, RecoversEveryShardAfterRestart) {
  constexpr size_t kShards = 4;
  constexpr size_t kRecords = 600;
  {
    auto service_or = ShardedAnonymizationService::Create(
        2, SquareDomain(0, 100), DurableOptions(kShards));
    ASSERT_TRUE(service_or.ok()) << service_or.status();
    for (size_t i = 0; i < kRecords; ++i) {
      ASSERT_TRUE(
          (*service_or)->Ingest(GridPoint(i), static_cast<int32_t>(i)).ok());
    }
    (*service_or)->Stop();
  }
  // Every shard owns its own WAL directory.
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_TRUE(std::filesystem::exists(ShardWalDir(dir_, s)))
        << "missing " << ShardWalDir(dir_, s);
  }

  auto reopened_or = ShardedAnonymizationService::Create(
      2, SquareDomain(0, 100), DurableOptions(kShards));
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status();
  ShardedAnonymizationService& reopened = **reopened_or;
  uint64_t recovered = 0;
  for (size_t s = 0; s < kShards; ++s) {
    recovered += reopened.shard_recovery(s).recovered;
  }
  EXPECT_EQ(recovered, kRecords);
  const auto stitched = reopened.PublishNow();
  ASSERT_NE(stitched, nullptr);
  EXPECT_EQ(stitched->info().records, kRecords);
  EXPECT_TRUE(stitched->Release(5).CheckKAnonymous(5).ok());
}

TEST_F(ShardDurabilityTest, RejectsMismatchedShardCountOnReopen) {
  {
    auto service_or = ShardedAnonymizationService::Create(
        2, SquareDomain(0, 100), DurableOptions(4));
    ASSERT_TRUE(service_or.ok()) << service_or.status();
    ASSERT_TRUE((*service_or)->Ingest(GridPoint(1)).ok());
    (*service_or)->Stop();
  }
  auto mismatched = ShardedAnonymizationService::Create(
      2, SquareDomain(0, 100), DurableOptions(2));
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(mismatched.status().message().find("--shards=4"),
            std::string::npos)
      << mismatched.status();
}

TEST_F(ShardDurabilityTest, RejectsMismatchedPolicyAndDim) {
  {
    auto service_or = ShardedAnonymizationService::Create(
        2, SquareDomain(0, 100), DurableOptions(2));
    ASSERT_TRUE(service_or.ok()) << service_or.status();
    (*service_or)->Stop();
  }
  ShardedServiceOptions range_options = DurableOptions(2);
  range_options.sharding.shard_by = ShardBy::kRange;
  auto wrong_policy = ShardedAnonymizationService::Create(
      2, SquareDomain(0, 100), range_options);
  ASSERT_FALSE(wrong_policy.ok());
  EXPECT_EQ(wrong_policy.status().code(), StatusCode::kInvalidArgument);

  Domain d3;
  d3.lo = {0, 0, 0};
  d3.hi = {100, 100, 100};
  auto wrong_dim =
      ShardedAnonymizationService::Create(3, d3, DurableOptions(2));
  ASSERT_FALSE(wrong_dim.ok());
  EXPECT_EQ(wrong_dim.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ShardDurabilityTest, RejectsUnshardedLegacyLayout) {
  // A bare MANIFEST at the root marks a pre-sharding durability directory;
  // serving sharded from it must be refused, not silently reinterpreted.
  Env* env = Env::Default();
  ASSERT_TRUE(env->CreateDirs(dir_).ok());
  auto file = env->NewWritableFile(dir_ + "/MANIFEST", /*truncate=*/true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("x", 1).ok());
  ASSERT_TRUE((*file)->Close().ok());

  auto service_or = ShardedAnonymizationService::Create(
      2, SquareDomain(0, 100), DurableOptions(2));
  ASSERT_FALSE(service_or.ok());
  EXPECT_EQ(service_or.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(service_or.status().message().find("unsharded"),
            std::string::npos)
      << service_or.status();
}

TEST_F(ShardDurabilityTest, LayoutFileIsForwardCompatible) {
  ASSERT_TRUE(Env::Default()->CreateDirs(dir_).ok());
  ASSERT_TRUE(
      CheckOrWriteShardLayout(dir_, 4, ShardBy::kHash, 2, Env::Default())
          .ok());
  // Re-checking the same layout passes; a future key is skipped.
  ASSERT_TRUE(
      CheckOrWriteShardLayout(dir_, 4, ShardBy::kHash, 2, Env::Default())
          .ok());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(Env::Default(), dir_ + "/SHARDS", &contents)
                  .ok());
  contents += "future_knob 7\n";
  auto file = Env::Default()->NewWritableFile(dir_ + "/SHARDS",
                                              /*truncate=*/true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(contents.data(), contents.size()).ok());
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_TRUE(
      CheckOrWriteShardLayout(dir_, 4, ShardBy::kHash, 2, Env::Default())
          .ok());
  EXPECT_FALSE(
      CheckOrWriteShardLayout(dir_, 8, ShardBy::kHash, 2, Env::Default())
          .ok());
}

}  // namespace
}  // namespace kanon
