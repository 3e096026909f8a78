#include "service/anonymization_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "anon/leaf_scan.h"
#include "common/random.h"
#include "common/thread.h"
#include "differential.h"
#include "service/ingest_queue.h"
#include "service/service_stats.h"

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
  options.queue_capacity = 128;
  options.max_batch = 16;
  options.snapshot_every = 0;  // publish on demand / at Stop only
  return options;
}

/// Sorted record ids across all partitions — for conservation checks
/// without access to the service's internal table.
std::vector<RecordId> AllRids(const PartitionSet& ps) {
  std::vector<RecordId> rids;
  for (const Partition& p : ps.partitions) {
    rids.insert(rids.end(), p.rids.begin(), p.rids.end());
  }
  std::sort(rids.begin(), rids.end());
  return rids;
}

void ExpectConserves(const PartitionSet& ps, size_t n) {
  const std::vector<RecordId> rids = AllRids(ps);
  ASSERT_EQ(rids.size(), n) << "records lost or duplicated";
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(rids[i], i) << "record id set is not exactly 0..n-1";
  }
}

TEST(IngestQueueTest, DrainsDeterministicBatchesInFifoOrder) {
  IngestQueue queue(/*dim=*/2, /*capacity=*/64, BackpressureMode::kBlock);
  for (int i = 0; i < 10; ++i) {
    const double point[] = {static_cast<double>(i), 0.0};
    ASSERT_TRUE(queue.Enqueue(point, i).ok());
  }
  IngestBatch batch;
  EXPECT_EQ(queue.DrainBatch(&batch, 4), 4u);
  EXPECT_EQ(queue.DrainBatch(&batch, 4), 4u);
  EXPECT_EQ(queue.DrainBatch(&batch, 4), 2u);
  ASSERT_EQ(batch.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(batch.point(i)[0], static_cast<double>(i));
    EXPECT_EQ(batch.point(i)[1], 0.0);
    EXPECT_EQ(batch.sensitives[i], i);
  }
}

TEST(IngestQueueTest, RingWrapsAroundWithoutReordering) {
  IngestQueue queue(/*dim=*/1, /*capacity=*/4, BackpressureMode::kReject);
  IngestBatch batch;
  double next = 0.0, expected = 0.0;
  for (int round = 0; round < 5; ++round) {
    // Fill 3 of 4 slots, drain 3: head walks through every ring offset.
    for (int i = 0; i < 3; ++i) {
      const double point[] = {next++};
      ASSERT_TRUE(queue.Enqueue(point, 0).ok());
    }
    batch.Clear();
    ASSERT_EQ(queue.DrainBatch(&batch, 8), 3u);
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(batch.point(i)[0], expected++);
    }
  }
}

TEST(IngestQueueTest, RejectModeReturnsResourceExhaustedWhenFull) {
  IngestQueue queue(/*dim=*/2, /*capacity=*/2, BackpressureMode::kReject);
  const double point[] = {1.0, 2.0};
  EXPECT_TRUE(queue.Enqueue(point, 0).ok());
  EXPECT_TRUE(queue.Enqueue(point, 0).ok());
  EXPECT_EQ(queue.Enqueue(point, 0).code(), StatusCode::kResourceExhausted);
  queue.Close();
  EXPECT_EQ(queue.Enqueue(point, 0).code(),
            StatusCode::kFailedPrecondition);
}

/// The TSan target for the queue itself: many producers race Enqueue
/// against Close while the single consumer drains. Every record is either
/// acknowledged (Status OK, must be drained) or refused (must not be
/// drained) — no loss, no duplication, no deadlock, in either
/// backpressure mode.
class IngestQueueShutdownStressTest
    : public ::testing::TestWithParam<BackpressureMode> {};

INSTANTIATE_TEST_SUITE_P(
    Modes, IngestQueueShutdownStressTest,
    ::testing::Values(BackpressureMode::kBlock, BackpressureMode::kReject),
    [](const ::testing::TestParamInfo<BackpressureMode>& info) {
      return info.param == BackpressureMode::kBlock ? "Block" : "Reject";
    });

TEST_P(IngestQueueShutdownStressTest, ConcurrentPushVsShutdownConserves) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  // A tiny ring keeps producers constantly at the full/empty boundaries
  // where the waiter bookkeeping lives.
  IngestQueue queue(/*dim=*/2, /*capacity=*/8, GetParam());

  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> refused{0};
  uint64_t drained = 0;

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const double point[] = {static_cast<double>(p),
                                static_cast<double>(i)};
        const Status s = queue.Enqueue(point, p);
        if (s.ok()) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        } else if (s.code() == StatusCode::kFailedPrecondition) {
          refused.fetch_add(1, std::memory_order_relaxed);
          return;  // closed mid-stream: stop producing, like the service
        } else {
          ASSERT_EQ(s.code(), StatusCode::kResourceExhausted);
          refused.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::thread consumer([&] {
    IngestBatch batch;
    for (;;) {
      batch.Clear();
      const size_t n = queue.DrainBatch(&batch, 32);
      if (n == 0) break;  // drained and closed
      ASSERT_EQ(batch.size(), n);
      drained += n;
    }
  });

  // Close while producers are mid-flight — including, in kBlock mode,
  // while some are parked on the not-full condvar.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  queue.Close();
  for (std::thread& t : producers) t.join();
  consumer.join();

  // Conservation: exactly the acknowledged records came out the far side.
  EXPECT_EQ(drained, accepted.load());
  EXPECT_EQ(queue.total_enqueued(), accepted.load());
  if (GetParam() == BackpressureMode::kReject) {
    EXPECT_GE(refused.load(), queue.total_rejected());
  }
  // Nothing left behind, and the queue stays refusing after the race.
  EXPECT_EQ(queue.pending(), 0u);
  const double point[] = {0.0, 0.0};
  EXPECT_EQ(queue.Enqueue(point, 0).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ServiceTest, ReleaseBeforeFirstSnapshotFails) {
  AnonymizationService service(2, SquareDomain(0, 100),
                               SmallServiceOptions(5));
  EXPECT_EQ(service.GetRelease(5).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.CurrentSnapshot(), nullptr);
}

TEST(ServiceTest, FewerThanKRecordsAreNeverPublished) {
  AnonymizationService service(2, SquareDomain(0, 100),
                               SmallServiceOptions(5));
  const double point[] = {1.0, 2.0};
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(service.Ingest(point).ok());
  EXPECT_EQ(service.PublishNow(), nullptr);  // 3 < k: nothing to publish
  service.Stop();
  EXPECT_EQ(service.CurrentSnapshot(), nullptr);
}

TEST(ServiceTest, IngestAfterStopFailsCleanly) {
  AnonymizationService service(2, SquareDomain(0, 100),
                               SmallServiceOptions(5));
  service.Stop();
  const double point[] = {1.0, 2.0};
  EXPECT_EQ(service.Ingest(point).code(), StatusCode::kFailedPrecondition);
  service.Stop();  // idempotent
}

TEST(ServiceTest, SingleProducerFinalSnapshotIsExactAndAnonymous) {
  const size_t k = 10;
  const size_t n = 500;
  AnonymizationService service(2, SquareDomain(0, 100),
                               SmallServiceOptions(k));
  Rng rng(42);
  for (size_t i = 0; i < n; ++i) {
    const double point[] = {rng.UniformDouble(0, 100),
                            rng.UniformDouble(0, 100)};
    ASSERT_TRUE(service.Ingest(point, static_cast<int32_t>(i % 4)).ok());
  }
  service.Stop();

  const auto snapshot = service.CurrentSnapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->info().records, n);
  EXPECT_EQ(snapshot->info().base_k, k);
  const PartitionSet base = snapshot->Release(k);
  EXPECT_GE(base.min_partition_size(), k);
  EXPECT_GT(base.num_partitions(), 1u);
  EXPECT_GE(AverageBoxNcp(base, snapshot->domain()), 0.0);
  EXPECT_LE(AverageBoxNcp(base, snapshot->domain()), 1.0);

  // Releases at several granularities from the same snapshot: each is
  // k1-anonymous and conserves the record set (Lemma 1 in action).
  for (const size_t k1 : {k, 2 * k, 7 * k}) {
    auto release = service.GetRelease(k1);
    ASSERT_TRUE(release.ok());
    EXPECT_TRUE(release->CheckKAnonymous(k1).ok());
    ExpectConserves(*release, n);
  }
  // Requests below base_k clamp up instead of weakening the guarantee.
  auto finest = service.GetRelease(1);
  ASSERT_TRUE(finest.ok());
  EXPECT_TRUE(finest->CheckKAnonymous(k).ok());
}

TEST(ServiceTest, PublishNowCoversEverythingEnqueuedBeforeTheCall) {
  const size_t k = 5;
  const size_t n = 200;
  ServiceOptions options = SmallServiceOptions(k);
  AnonymizationService service(2, SquareDomain(0, 100), options);
  Rng rng(7);
  for (size_t i = 0; i < n; ++i) {
    const double point[] = {rng.UniformDouble(0, 100),
                            rng.UniformDouble(0, 100)};
    ASSERT_TRUE(service.Ingest(point).ok());
  }
  const auto snapshot = service.PublishNow();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->info().records, n);
  EXPECT_EQ(snapshot->info().epoch, 1u);
  // A second on-demand publish with no new data still services the request.
  const auto again = service.PublishNow();
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again->info().records, n);
  service.Stop();
}

TEST(ServiceTest, CadencePublishesDuringIngest) {
  const size_t k = 5;
  ServiceOptions options = SmallServiceOptions(k);
  options.snapshot_every = 100;
  AnonymizationService service(2, SquareDomain(0, 100), options);
  Rng rng(11);
  for (size_t i = 0; i < 1000; ++i) {
    const double point[] = {rng.UniformDouble(0, 100),
                            rng.UniformDouble(0, 100)};
    ASSERT_TRUE(service.Ingest(point).ok());
  }
  service.Stop();
  const ServiceStats stats = service.Stats();
  // At least a few cadence publications happened before the final one
  // (exact count depends on batch boundaries).
  EXPECT_GE(stats.snapshots, 3u);
  const auto snapshot = service.CurrentSnapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->info().records, 1000u);
  EXPECT_EQ(snapshot->info().epoch, stats.snapshots);
}

/// The grid stream of tests/differential.h inserted record-at-a-time
/// into a fresh anonymizer: the from-scratch tuple-path reference.
std::unique_ptr<IncrementalAnonymizer> TupleTree(
    size_t n, const RTreeAnonymizerOptions& options, const Domain* domain) {
  auto anonymizer =
      std::make_unique<IncrementalAnonymizer>(2, options, domain);
  for (size_t i = 0; i < n; ++i) {
    anonymizer->Insert(testutil::GridPoint(i), i, testutil::GridSensitive(i));
  }
  return anonymizer;
}

// BuildSnapshot is the one publication path of leader and follower. Its
// fragments are the tree's leaf blocks in order (the same rids, MBRs and
// regions ExtractLeafGroups copies out), its releases are the leaf scan
// over the extracted groups, and its DP cells count every record.
TEST(SnapshotTest, BuildSnapshotIsTheLeafScanOverExtractedLeaves) {
  const Domain domain = testutil::SquareDomain(0, 100);
  RTreeAnonymizerOptions options;
  options.base_k = 5;
  {
    const auto anonymizer = TupleTree(1500, options, &domain);
    const RPlusTree& tree = anonymizer->tree();
    const auto snapshot = testutil::PublishTree(
        tree, domain, options.base_k, /*dp_height=*/6, /*epoch=*/7);

    const std::vector<LeafGroup> leaves = ExtractLeafGroups(tree, &domain);
    ASSERT_EQ(snapshot->fragments().size(), leaves.size());
    for (size_t i = 0; i < leaves.size(); ++i) {
      const LeafBlock& got = *snapshot->fragments()[i];
      EXPECT_TRUE(std::ranges::equal(got.rids(), leaves[i].rids))
          << "leaf " << i;
      EXPECT_EQ(Mbr::FromView(got.mbr()), leaves[i].mbr) << "leaf " << i;
      EXPECT_EQ(ClipRegionToDomain(got.region(), domain), leaves[i].region)
          << "leaf " << i;
    }
    for (const size_t k1 : {size_t{5}, size_t{40}}) {
      testutil::ExpectSameRelease(snapshot->Release(k1),
                                  LeafScan(leaves, k1));
    }
    const SnapshotInfo& info = snapshot->info();
    EXPECT_EQ(info.epoch, 7u);
    EXPECT_EQ(info.records, 1500u);
    EXPECT_EQ(info.base_k, 5u);
    ASSERT_NE(snapshot->dp_cells(), nullptr);
    EXPECT_EQ(snapshot->dp_height(), 6u);
    const std::vector<uint64_t>& cells = *snapshot->dp_cells();
    EXPECT_EQ(std::accumulate(cells.begin(), cells.end(), uint64_t{0}),
              1500u);
  }
  const auto anonymizer = TupleTree(50, options, &domain);
  EXPECT_EQ(
      testutil::PublishTree(anonymizer->tree(), domain, options.base_k, 0, 1)
          ->dp_cells(),
      nullptr);
}

// Whatever the publication cadence, the service's final snapshot is the
// snapshot of a from-scratch tuple-loaded tree over the same stream:
// publication never changes the tree, so releases are cadence-invariant.
TEST(ServiceTest, PublishedSnapshotsMatchAFromScratchTupleTree) {
  const size_t k = 5;
  const size_t n = 3000;
  const Domain domain = testutil::SquareDomain(0, 100);
  ServiceOptions base_options = SmallServiceOptions(k);
  const auto reference = TupleTree(n, base_options.anonymizer, &domain);
  const auto want = testutil::PublishTree(reference->tree(), domain, k,
                                         base_options.dp_height, /*epoch=*/1);
  for (const uint64_t cadence : {uint64_t{0}, uint64_t{97}, uint64_t{1000}}) {
    ServiceOptions options = base_options;
    options.snapshot_every = cadence;
    AnonymizationService service(2, domain, options);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(service
                      .Ingest(testutil::GridPoint(i),
                              testutil::GridSensitive(i))
                      .ok());
    }
    service.Stop();
    const auto got = service.CurrentSnapshot();
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->info().records, n) << "cadence " << cadence;
    for (const size_t k1 : {k, size_t{40}, size_t{300}}) {
      testutil::ExpectSameRelease(got->Release(k1), want->Release(k1));
    }
    EXPECT_EQ(*got->dp_cells(), *want->dp_cells()) << "cadence " << cadence;
  }
}

TEST(ServiceTest, StatsCountersAreConsistent) {
  const size_t k = 5;
  const size_t n = 300;
  AnonymizationService service(2, SquareDomain(0, 100),
                               SmallServiceOptions(k));
  Rng rng(3);
  for (size_t i = 0; i < n; ++i) {
    const double point[] = {rng.UniformDouble(0, 100),
                            rng.UniformDouble(0, 100)};
    ASSERT_TRUE(service.Ingest(point).ok());
  }
  service.Stop();
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.enqueued, n);
  EXPECT_EQ(stats.inserted, n);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_GE(stats.batches, n / SmallServiceOptions(k).max_batch);
  EXPECT_GT(stats.mean_batch(), 0.0);
  EXPECT_GE(stats.snapshots, 1u);
  const std::string rendered = FormatServiceStats(stats);
  EXPECT_NE(rendered.find("inserted=300"), std::string::npos);
  EXPECT_NE(rendered.find("snapshots"), std::string::npos);
}

// The headline concurrency test: N producers race M records each into the
// service while readers hammer the snapshot path. Run under
// -DKANON_SANITIZE=thread this doubles as the data-race proof for the
// single-writer / epoch-published-snapshot design.
TEST(ServiceStressTest, ConcurrentProducersConserveRecords) {
  const size_t k = 10;
  const size_t producers = 4;
  const size_t per_producer = 2500;
  const size_t n = producers * per_producer;

  ServiceOptions options;
  options.anonymizer.base_k = k;
  options.queue_capacity = 256;
  options.max_batch = 64;
  options.backpressure = BackpressureMode::kBlock;
  options.snapshot_every = 2000;
  AnonymizationService service(2, SquareDomain(0, 100), options);

  std::atomic<bool> readers_run{true};
  JoinableThread reader([&] {
    // The reader path must stay valid while ingest churns: every observed
    // snapshot is internally consistent even as new epochs are published.
    while (readers_run.load()) {
      if (const auto snapshot = service.CurrentSnapshot()) {
        const PartitionSet release = snapshot->Release(k);
        EXPECT_TRUE(release.CheckKAnonymous(k).ok());
        EXPECT_EQ(AllRids(release).size(), snapshot->info().records);
      }
      std::this_thread::yield();
    }
  });

  {
    std::vector<JoinableThread> threads;
    for (size_t t = 0; t < producers; ++t) {
      threads.emplace_back([&service, t] {
        Rng rng(100 + t);
        for (size_t i = 0; i < per_producer; ++i) {
          const double point[] = {rng.UniformDouble(0, 100),
                                  rng.UniformDouble(0, 100)};
          ASSERT_TRUE(
              service.Ingest(point, static_cast<int32_t>(t)).ok());
        }
      });
    }
  }  // joins all producers

  service.Stop();
  readers_run.store(false);
  reader.Join();

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.enqueued, n);
  EXPECT_EQ(stats.inserted, n);
  EXPECT_EQ(stats.rejected, 0u);

  const auto snapshot = service.CurrentSnapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->info().records, n);
  auto release = service.GetRelease(k);
  ASSERT_TRUE(release.ok());
  EXPECT_TRUE(release->CheckKAnonymous(k).ok());
  EXPECT_GE(release->min_partition_size(), k);
  ExpectConserves(*release, n);
}

TEST(ServiceStressTest, RejectBackpressureNeverLosesAcceptedRecords) {
  const size_t k = 5;
  const size_t producers = 2;
  const size_t attempts_each = 2000;

  ServiceOptions options;
  options.anonymizer.base_k = k;
  options.queue_capacity = 8;  // deliberately tiny: force rejections
  options.max_batch = 4;
  options.backpressure = BackpressureMode::kReject;
  options.snapshot_every = 0;
  AnonymizationService service(2, SquareDomain(0, 100), options);

  std::atomic<uint64_t> accepted{0};
  {
    std::vector<JoinableThread> threads;
    for (size_t t = 0; t < producers; ++t) {
      threads.emplace_back([&service, &accepted, t] {
        Rng rng(200 + t);
        for (size_t i = 0; i < attempts_each; ++i) {
          const double point[] = {rng.UniformDouble(0, 100),
                                  rng.UniformDouble(0, 100)};
          const Status status = service.Ingest(point);
          if (status.ok()) {
            accepted.fetch_add(1);
          } else {
            ASSERT_EQ(status.code(), StatusCode::kResourceExhausted);
          }
        }
      });
    }
  }

  service.Stop();
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.enqueued, accepted.load());
  EXPECT_EQ(stats.inserted, accepted.load());
  EXPECT_EQ(stats.enqueued + stats.rejected, producers * attempts_each);

  if (accepted.load() >= k) {
    const auto snapshot = service.CurrentSnapshot();
    ASSERT_NE(snapshot, nullptr);
    EXPECT_EQ(snapshot->info().records, accepted.load());
    auto release = service.GetRelease(k);
    ASSERT_TRUE(release.ok());
    EXPECT_TRUE(release->CheckKAnonymous(k).ok());
    ExpectConserves(*release, accepted.load());
  }
}

}  // namespace
}  // namespace kanon
