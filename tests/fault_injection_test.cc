#include <gtest/gtest.h>

#include <vector>

#include "anon/rtree_anonymizer.h"
#include "common/check.h"
#include "common/env.h"
#include "common/random.h"
#include "durability/checkpoint.h"
#include "durability/recovery.h"
#include "durability/wal.h"
#include "index/buffer_tree.h"
#include "service/anonymization_service.h"
#include "storage/buffer_pool.h"
#include "storage/external_sort.h"
#include "storage/spill_file.h"
#include "scratch_dir.h"

namespace kanon {
namespace {

using testutil::ScratchDir;

RTreeIndexOptions SmallAnonOptions() {
  RTreeIndexOptions options;
  options.base_k = 3;
  options.max_fanout = 4;
  return options;
}

std::vector<std::vector<double>> RandomPoints(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> points(n);
  for (auto& p : points) {
    p = {rng.UniformDouble(0, 1000), rng.UniformDouble(0, 1000)};
  }
  return points;
}

Domain UnitDomain() {
  Domain domain;
  domain.lo = {0, 0};
  domain.hi = {1000, 1000};
  return domain;
}

/// Durable service tuned for fault tests: small k, frequent fsyncs so the
/// durable horizon trails ingest closely, no retry backoff (the fault env
/// is deterministic — sleeping buys nothing).
ServiceOptions FaultServiceOptions(const std::string& dir) {
  ServiceOptions options;
  options.anonymizer.base_k = 5;
  options.snapshot_every = 20;
  options.durability.wal_dir = dir;
  options.durability.fsync_every = 8;
  options.durability.checkpoint_every = 0;  // only at Stop
  options.durability.retry_backoff_ms = 0;
  return options;
}

/// A pager that starts failing every I/O after a fuse burns down. Exercises
/// the error paths: every layer above must propagate the Status rather
/// than crash, corrupt memory, or lose track of its own bookkeeping.
class FaultyPager : public Pager {
 public:
  explicit FaultyPager(size_t fuse, size_t page_size = 512)
      : Pager(page_size), inner_(page_size), fuse_(fuse) {}

  void Rearm(size_t fuse) { fuse_ = fuse; }

 private:
  Status DoRead(PageId id, char* buf) override {
    if (fuse_ == 0) return Status::IoError("injected read failure");
    --fuse_;
    return inner_.Read(id, buf);
  }
  Status DoWrite(PageId id, const char* buf) override {
    if (fuse_ == 0) return Status::IoError("injected write failure");
    --fuse_;
    return inner_.Write(id, buf);
  }

  MemPager inner_;
  size_t fuse_;
};

TEST(FaultInjectionTest, BufferPoolPropagatesWriteFailure) {
  FaultyPager pager(/*fuse=*/0);
  BufferPool pool(&pager, 2);
  // Fill both frames dirty, then a third page forces an eviction whose
  // write-back fails.
  auto h1 = pool.New();
  ASSERT_TRUE(h1.ok());
  h1->MarkDirty();
  h1->Release();
  auto h2 = pool.New();
  ASSERT_TRUE(h2.ok());
  h2->MarkDirty();
  h2->Release();
  auto h3 = pool.New();
  ASSERT_FALSE(h3.ok());
  EXPECT_EQ(h3.status().code(), StatusCode::kIoError);
}

TEST(FaultInjectionTest, BufferPoolFlushAllPropagates) {
  FaultyPager pager(0);
  BufferPool pool(&pager, 4);
  {
    auto h = pool.New();
    ASSERT_TRUE(h.ok());
    h->MarkDirty();
  }
  EXPECT_EQ(pool.FlushAll().code(), StatusCode::kIoError);
}

TEST(FaultInjectionTest, PageChainAppendPropagates) {
  // A two-frame pool (the minimum for chain linking) forces write-backs as
  // the chain grows; the fuse lets a handful through and then fails.
  FaultyPager pager(3);
  BufferPool pool(&pager, 2);
  RecordCodec codec(4);
  PageChain chain(&pool, &codec);
  const double v[] = {1, 2, 3, 4};
  Status status = Status::OK();
  for (int i = 0; i < 10000 && status.ok(); ++i) {
    status = chain.Append(i, 0, {v, 4});
  }
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

TEST(FaultInjectionTest, BufferTreeInsertPathPropagates) {
  FaultyPager pager(/*fuse=*/200);
  BufferPool pool(&pager, 2);  // tiny pool: constant eviction traffic
  RTreeConfig config;
  config.min_leaf = 3;
  config.max_leaf = 9;
  config.max_fanout = 4;
  BufferTree tree(2, config, /*buffer_pages=*/1, &pool);
  Rng rng(1);
  Status status = Status::OK();
  for (size_t i = 0; i < 100000 && status.ok(); ++i) {
    const double p[] = {rng.UniformDouble(0, 100),
                        rng.UniformDouble(0, 100)};
    status = tree.Insert({p, 2}, i, 0);
  }
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

TEST(FaultInjectionTest, ExternalSorterFinishPropagates) {
  FaultyPager pager(/*fuse=*/50);
  BufferPool pool(&pager, 4);
  ExternalSorter sorter(1, /*run_records=*/16, &pool);
  Rng rng(2);
  Status status = Status::OK();
  for (size_t i = 0; i < 10000 && status.ok(); ++i) {
    const double v[] = {0.0};
    status = sorter.Add(rng.Next(), i, 0, {v, 1});
  }
  if (status.ok()) {
    status = sorter.Finish(
        [](uint64_t, uint64_t, int32_t, std::span<const double>) {});
  }
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

TEST(FaultInjectionTest, RecoveryAfterRearm) {
  // After the fault clears, the pool remains usable (no frame leaked in a
  // broken state).
  FaultyPager pager(0);
  BufferPool pool(&pager, 2);
  {
    auto h = pool.New();
    ASSERT_TRUE(h.ok());
    h->MarkDirty();
  }
  {
    auto h = pool.New();
    ASSERT_TRUE(h.ok());
    h->MarkDirty();
  }
  auto failed = pool.New();
  ASSERT_FALSE(failed.ok());
  pager.Rearm(1000000);
  auto ok = pool.New();
  ASSERT_TRUE(ok.ok());
  ok->data()[0] = 'x';
  ok->MarkDirty();
  ok->Release();
  EXPECT_TRUE(pool.FlushAll().ok());
}

// ---------------------------------------------------------------------------
// WAL under injected faults.
// ---------------------------------------------------------------------------

TEST(FaultInjectionWalTest, SyncFailurePoisonsWriterPermanently) {
  ScratchDir dir;
  FaultInjectionOptions fault_options;
  fault_options.fail_nth_sync = 2;  // sync #1 durably creates the segment
  FaultInjectionEnv env(Env::Default(), fault_options);

  auto wal = WalWriter::Open(dir.path(), 2, 1, {}, &env);
  ASSERT_TRUE(wal.ok()) << wal.status();
  const double p[] = {1.0, 2.0};
  for (uint64_t lsn = 1; lsn <= 8; ++lsn) {
    ASSERT_TRUE((*wal)->Append(lsn, {p, 2}, 0).ok());
  }
  EXPECT_EQ((*wal)->Sync().code(), StatusCode::kIoError);
  EXPECT_TRUE((*wal)->poisoned());

  // fsync-gate semantics: the kernel may have dropped the dirty pages, so
  // no later call can prove anything — every one fails fast, and the
  // durable horizon stays where it was last proven.
  EXPECT_EQ((*wal)->Append(9, {p, 2}, 0).code(), StatusCode::kIoError);
  EXPECT_EQ((*wal)->Sync().code(), StatusCode::kIoError);
  EXPECT_EQ((*wal)->stats().synced_lsn, 0u);
}

TEST(FaultInjectionWalTest, AppendRetryAfterTornWriteKeepsLsnsDense) {
  ScratchDir dir;
  FaultInjectionOptions fault_options;
  fault_options.fail_nth_write = 5;  // write #1 is the segment header
  fault_options.torn_writes = true;  // persist a prefix, then fail
  FaultInjectionEnv env(Env::Default(), fault_options);

  auto wal = WalWriter::Open(dir.path(), 2, 1, {}, &env);
  ASSERT_TRUE(wal.ok()) << wal.status();
  const auto points = RandomPoints(20, 3);
  uint64_t retried = 0;
  for (uint64_t lsn = 1; lsn <= points.size(); ++lsn) {
    Status status = (*wal)->Append(lsn, points[lsn - 1], 0);
    if (!status.ok()) {
      // Transient write failure: the same record retries cleanly — the
      // writer quarantines the torn segment first.
      ++retried;
      status = (*wal)->Append(lsn, points[lsn - 1], 0);
    }
    ASSERT_TRUE(status.ok()) << status;
  }
  ASSERT_TRUE((*wal)->Sync().ok());
  EXPECT_EQ(retried, 1u);
  EXPECT_FALSE((*wal)->poisoned());
  const WalStats stats = (*wal)->stats();
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_EQ(stats.synced_lsn, 20u);
  wal->reset();

  // The torn bytes are gone: replay sees every record exactly once, in
  // order, with dense LSNs and no truncated tail.
  WalReplayResult replay;
  std::vector<uint64_t> lsns;
  ASSERT_TRUE(ReplayWal(
                  dir.path(), 2, 1,
                  [&](uint64_t lsn, std::span<const double> point,
                      int32_t sensitive) {
                    EXPECT_EQ(point[0], points[lsn - 1][0]);
                    EXPECT_EQ(sensitive, 0);
                    lsns.push_back(lsn);
                  },
                  &replay)
                  .ok());
  EXPECT_EQ(replay.replayed, 20u);
  EXPECT_FALSE(replay.truncated_tail);
  ASSERT_EQ(lsns.size(), 20u);
  for (size_t i = 0; i < lsns.size(); ++i) EXPECT_EQ(lsns[i], i + 1);
}

// ---------------------------------------------------------------------------
// Checkpoint under injected faults (satellite: ENOSPC mid-checkpoint must
// never replace the manifest or touch the WAL).
// ---------------------------------------------------------------------------

TEST(FaultInjectionCheckpointTest, FailedCheckpointLeavesManifestAndWal) {
  ScratchDir dir;
  IncrementalAnonymizer anonymizer(2, SmallAnonOptions());
  auto wal = WalWriter::Open(dir.path(), 2, 1);
  ASSERT_TRUE(wal.ok());
  const auto points = RandomPoints(60, 7);
  for (size_t i = 0; i < 40; ++i) {
    ASSERT_TRUE((*wal)->Append(i + 1, points[i], 0).ok());
    anonymizer.Insert(points[i], i, 0);
  }
  ASSERT_TRUE((*wal)->Sync().ok());
  Checkpointer clean(dir.path());
  ASSERT_TRUE(clean.Checkpoint(anonymizer.tree(), 40).ok());
  const auto before = LoadManifest(dir.path());
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->checkpoint_lsn, 40u);

  for (size_t i = 40; i < points.size(); ++i) {
    ASSERT_TRUE((*wal)->Append(i + 1, points[i], 0).ok());
    anonymizer.Insert(points[i], i, 0);
  }
  ASSERT_TRUE((*wal)->Sync().ok());
  wal->reset();

  // ENOSPC on the first write of the new checkpoint file. The path filter
  // leaves MANIFEST and WAL I/O untouched — only the tree dump fails.
  FaultInjectionOptions fault_options;
  fault_options.fail_nth_write = 1;
  fault_options.torn_writes = false;
  fault_options.path_filter = "checkpoint-";
  FaultInjectionEnv env(Env::Default(), fault_options);
  Checkpointer faulty(dir.path(), Checkpointer::kCheckpointPageSize, &env);
  EXPECT_EQ(faulty.Checkpoint(anonymizer.tree(), 60).code(),
            StatusCode::kIoError);

  // The previous checkpoint stays fully authoritative: same manifest, same
  // file, and the WAL tail it depends on was not truncated.
  const auto after = LoadManifest(dir.path());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->checkpoint_lsn, 40u);
  EXPECT_EQ(after->file, before->file);

  IncrementalAnonymizer recovered(2, SmallAnonOptions());
  RecoveryOptions recovery_options;
  recovery_options.dir = dir.path();
  const auto result = RecoverInto(recovery_options, &recovered);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->loaded_checkpoint);
  EXPECT_EQ(result->checkpoint_lsn, 40u);
  EXPECT_EQ(result->recovered, 60u);
  EXPECT_EQ(result->next_lsn, 61u);
}

// ---------------------------------------------------------------------------
// Service-level degradation (the acceptance scenario: a dead disk mid-stream
// degrades serve to read-only; a restart on healthy hardware recovers a
// k-anonymous release).
// ---------------------------------------------------------------------------

TEST(FaultInjectionServiceTest, DiskDeathDegradesToReadOnlyThenRecovers) {
  ScratchDir dir;
  const auto points = RandomPoints(600, 17);

  // The disk dies after ~100 records' worth of WAL traffic: well past the
  // first snapshot (every 20), well short of the stream.
  FaultInjectionOptions fault_options;
  fault_options.break_after_ops = 120;
  fault_options.sync_faults = true;
  FaultInjectionEnv env(Env::Default(), fault_options);
  ServiceOptions options = FaultServiceOptions(dir.path());
  options.durability.env = &env;

  uint64_t unavailable = 0;
  {
    auto service = AnonymizationService::Create(2, UnitDomain(), options);
    ASSERT_TRUE(service.ok()) << service.status();
    for (const auto& p : points) {
      const Status status = (*service)->Ingest(p);
      if (!status.ok()) {
        ASSERT_EQ(status.code(), StatusCode::kUnavailable) << status;
        ++unavailable;
      }
    }
    (*service)->PublishNow();  // barrier: the queue has been drained

    EXPECT_EQ((*service)->health(), ServiceHealth::kDegraded);
    EXPECT_FALSE((*service)->degraded_reason().empty());
    // Read-only: new records are refused with Unavailable...
    EXPECT_EQ((*service)->Ingest(points[0]).code(),
              StatusCode::kUnavailable);
    // ...while the last published snapshot keeps serving releases.
    ASSERT_NE((*service)->CurrentSnapshot(), nullptr);
    const auto release = (*service)->GetRelease(5);
    ASSERT_TRUE(release.ok()) << release.status();
    EXPECT_TRUE(release->CheckKAnonymous(5).ok());

    const ServiceStats stats = (*service)->Stats();
    EXPECT_EQ(stats.health, ServiceHealth::kDegraded);
    EXPECT_GT(stats.unavailable, 0u);
    EXPECT_GT(stats.dropped, 0u);
    EXPECT_FALSE(stats.degraded_reason.empty());

    (*service)->Stop();
    // Degraded is sticky — Stop must not relabel a degraded service as a
    // cleanly stopped one.
    EXPECT_EQ((*service)->health(), ServiceHealth::kDegraded);
  }

  // Restart on healthy hardware: the synced prefix recovers, record
  // conservation holds, and the release is k-anonymous.
  options.durability.env = nullptr;
  auto service = AnonymizationService::Create(2, UnitDomain(), options);
  ASSERT_TRUE(service.ok()) << service.status();
  const RecoveryResult& recovery = (*service)->recovery();
  EXPECT_EQ(recovery.recovered, recovery.next_lsn - 1);
  EXPECT_GE(recovery.recovered, 5u);
  const auto release = (*service)->GetRelease(5);
  ASSERT_TRUE(release.ok()) << release.status();
  EXPECT_TRUE(release->CheckKAnonymous(5).ok());
  (*service)->Stop();
  EXPECT_EQ((*service)->health(), ServiceHealth::kStopped);
}

TEST(FaultInjectionServiceTest, TransientWriteFaultRetriesWithoutDegrading) {
  ScratchDir dir;
  const auto points = RandomPoints(120, 23);

  // Exactly one torn write mid-stream, then a healthy disk: the retry path
  // must absorb it invisibly.
  FaultInjectionOptions fault_options;
  fault_options.fail_nth_write = 40;
  fault_options.torn_writes = true;
  FaultInjectionEnv env(Env::Default(), fault_options);
  ServiceOptions options = FaultServiceOptions(dir.path());
  options.durability.env = &env;

  {
    auto service = AnonymizationService::Create(2, UnitDomain(), options);
    ASSERT_TRUE(service.ok()) << service.status();
    for (const auto& p : points) {
      ASSERT_TRUE((*service)->Ingest(p).ok());
    }
    (*service)->Stop();
    EXPECT_EQ((*service)->health(), ServiceHealth::kStopped);
    EXPECT_EQ((*service)->inserted(), points.size());
    const ServiceStats stats = (*service)->Stats();
    EXPECT_GE(stats.wal_retries, 1u);
    EXPECT_GE(stats.wal_recoveries, 1u);
    EXPECT_FALSE(stats.wal_poisoned);
    EXPECT_EQ(stats.dropped, 0u);
  }

  options.durability.env = nullptr;
  auto service = AnonymizationService::Create(2, UnitDomain(), options);
  ASSERT_TRUE(service.ok()) << service.status();
  EXPECT_EQ((*service)->recovery().recovered, points.size());
  (*service)->Stop();
}

TEST(FaultInjectionServiceTest, SeededFaultMatrixNeverBreaksRecovery) {
  // A battery of random fault schedules (torn writes, failed fsyncs). The
  // service may serve the whole stream, degrade partway, or fail to start —
  // but it must never crash, and a fault-free restart must always recover a
  // dense, k-anonymous prefix. CI runs this under every sanitizer.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    ScratchDir dir;
    const auto points = RandomPoints(300, seed);
    FaultInjectionOptions fault_options;
    fault_options.seed = seed;
    fault_options.mean_ops_between_faults = 60;
    fault_options.sync_faults = true;
    FaultInjectionEnv env(Env::Default(), fault_options);
    ServiceOptions options = FaultServiceOptions(dir.path());
    options.durability.env = &env;
    options.durability.checkpoint_every = 100;

    {
      auto service = AnonymizationService::Create(2, UnitDomain(), options);
      if (service.ok()) {
        for (const auto& p : points) {
          const Status status = (*service)->Ingest(p);
          if (!status.ok()) {
            ASSERT_EQ(status.code(), StatusCode::kUnavailable)
                << "seed " << seed << ": " << status;
          }
        }
        (*service)->Stop();
      }
      // A Create failure (the schedule killed the header write of the very
      // first segment) is a graceful Status, not a crash; recovery below
      // still runs against whatever the directory holds.
    }

    options.durability.env = nullptr;
    auto service = AnonymizationService::Create(2, UnitDomain(), options);
    ASSERT_TRUE(service.ok()) << "seed " << seed << ": " << service.status();
    const RecoveryResult& recovery = (*service)->recovery();
    EXPECT_EQ(recovery.recovered, recovery.next_lsn - 1) << "seed " << seed;
    if (recovery.recovered >= 5) {
      const auto release = (*service)->GetRelease(5);
      ASSERT_TRUE(release.ok()) << "seed " << seed << ": "
                                << release.status();
      EXPECT_TRUE(release->CheckKAnonymous(5).ok()) << "seed " << seed;
    }
    (*service)->Stop();
  }
}

}  // namespace
}  // namespace kanon
