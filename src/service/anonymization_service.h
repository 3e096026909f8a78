#ifndef KANON_SERVICE_ANONYMIZATION_SERVICE_H_
#define KANON_SERVICE_ANONYMIZATION_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "anon/rtree_anonymizer.h"
#include "common/status.h"
#include "common/thread.h"
#include "durability/checkpoint.h"
#include "durability/recovery.h"
#include "durability/wal.h"
#include "service/ingest_queue.h"
#include "service/service_stats.h"
#include "service/snapshot.h"

namespace kanon {

/// How many times a failed WAL append or checkpoint is retried (the WAL
/// runs segment recovery between attempts) before the service degrades to
/// read-only. Transient faults — a blip of ENOSPC, an interrupted write —
/// heal here; persistent ones degrade in bounded time.
inline constexpr size_t kWalRetryLimit = 4;

/// Durability knobs of the serving layer. Durability is off by default
/// (wal_dir empty): the seed service was purely in-memory and stays that
/// way unless a WAL directory is configured.
struct DurabilityOptions {
  /// Directory for WAL segments, checkpoint files and the MANIFEST
  /// (created if missing). Empty disables durability entirely.
  std::string wal_dir;
  /// Group-commit cadence (see WalOptions::fsync_every).
  size_t fsync_every = 256;
  /// Checkpoint the tree every this many inserts (0 = only at Stop).
  uint64_t checkpoint_every = 100000;
  /// WAL segment rotation size.
  size_t segment_bytes = 16u << 20;
  /// Filesystem the durability artifacts live on. nullptr = Env::Default();
  /// a FaultInjectionEnv here exercises every failure path below. Must
  /// outlive the service.
  Env* env = nullptr;
  /// First retry backoff; doubles per attempt up to the max. 0 retries
  /// immediately (unit tests).
  uint64_t retry_backoff_ms = 1;
  uint64_t retry_backoff_max_ms = 64;

  bool enabled() const { return !wal_dir.empty(); }
};

/// Tuning knobs of the serving layer.
struct ServiceOptions {
  /// Index shape (base_k, leaf capacity, fanout, split heuristics,
  /// constraint). Every release is published compacted, as leaf MBRs.
  RTreeIndexOptions anonymizer;

  /// Capacity of the ingest queue, in records. This is the burst the
  /// service absorbs before backpressure engages.
  size_t queue_capacity = 4096;

  /// Maximum records applied to the index per critical section. Larger
  /// batches amortize the single-writer section over more records.
  size_t max_batch = 256;

  /// What producers experience when the queue is full.
  BackpressureMode backpressure = BackpressureMode::kBlock;

  /// Publish a fresh snapshot every this many inserts (0 = only on demand
  /// and at Stop). Publication is skipped while fewer than base_k records
  /// are indexed — fewer than k records cannot be k-anonymized.
  uint64_t snapshot_every = 10000;

  /// Write-ahead logging, checkpointing and crash recovery (off unless a
  /// WAL directory is set — see DurabilityOptions).
  DurabilityOptions durability;

  /// Height of the canonical DP bisection grid (dp/dp_hierarchy.h) whose
  /// exact per-cell counts every published snapshot carries, enabling the
  /// serving layer's /release/dp endpoints. The grid is data-independent,
  /// so per-shard cell vectors sum and a follower reproduces the leader's
  /// exactly — the root of the cross-deployment byte-identity of DP
  /// releases. 0 disables DP cell accounting entirely.
  size_t dp_height = 10;
};

/// A concurrent incremental anonymization service (the serving layer of the
/// ROADMAP's "heavy traffic" north star) built on the paper's central
/// property: the R⁺-tree index *is* the anonymization, and maintaining it
/// under record-at-a-time inserts is cheap.
///
/// Architecture — single writer, readers decoupled from ingest:
///
///   producers --Ingest()--> [bounded MPSC queue] --batch--> ingest thread
///                                                              |
///                                      owns RPlusTree, applies batches,
///                                      republishes an immutable Snapshot
///                                                              v
///   readers  --GetRelease(k1)-- <--shared_ptr swap-- [current snapshot]
///
/// The live tree is touched by exactly one thread, so the index needs no
/// locks and keeps its single-threaded insert speed. Readers never see the
/// live tree: they copy the current Snapshot pointer (a constant-time
/// critical section — snapshots are built entirely off-lock) and run the
/// leaf scan over its shared leaf blocks, so GetRelease neither blocks
/// ingest nor is blocked by it, at any requested granularity k1 >= base_k
/// (Lemma 1 keeps any set of such releases jointly safe).
class AnonymizationService {
 public:
  /// `domain` is the quasi-identifier domain the stream is drawn from
  /// (from schema metadata in practice). It normalizes split decisions and
  /// anchors the NCP summaries of every snapshot and the DP cell grid.
  /// When durability is configured, recovery runs inside the constructor
  /// (before the ingest thread starts) and any durability failure aborts —
  /// use Create to handle such failures as a Status instead.
  AnonymizationService(size_t dim, Domain domain, ServiceOptions options = {});

  /// Like the constructor, but surfaces recovery / WAL-open failures (a
  /// corrupt manifest, an unwritable directory, a checkpoint from a
  /// differently-configured service...) as a Status.
  static StatusOr<std::unique_ptr<AnonymizationService>> Create(
      size_t dim, Domain domain, ServiceOptions options = {});

  /// Stops the service (drains + final publish) if still running.
  ~AnonymizationService();

  AnonymizationService(const AnonymizationService&) = delete;
  AnonymizationService& operator=(const AnonymizationService&) = delete;

  size_t dim() const { return dim_; }
  const ServiceOptions& options() const { return options_; }

  /// Submits one record from any thread. Blocks or returns
  /// ResourceExhausted under backpressure (per options().backpressure);
  /// returns FailedPrecondition after Stop() and Unavailable while the
  /// service is degraded to read-only (see ServiceHealth).
  Status Ingest(std::span<const double> point, int32_t sensitive = 0);

  /// Current health. Reads (CurrentSnapshot / GetRelease) work in every
  /// state; Ingest only while kServing.
  ServiceHealth health() const {
    return health_.load(std::memory_order_acquire);
  }

  /// The first fatal durability error, or "" while serving.
  std::string degraded_reason() const {
    std::lock_guard<std::mutex> lock(degraded_mu_);
    return degraded_reason_;
  }

  /// The most recent published snapshot (nullptr before the first
  /// publication). Constant time — the lock guards only a pointer copy,
  /// never tree or snapshot work — and the snapshot stays valid as long
  /// as the caller holds the pointer, even across Stop().
  std::shared_ptr<const Snapshot> CurrentSnapshot() const {
    std::lock_guard<std::mutex> lock(current_mu_);
    return current_;
  }

  /// Releases the k1-anonymization of the current snapshot's records.
  /// FailedPrecondition when nothing has been published yet.
  StatusOr<PartitionSet> GetRelease(size_t k1) const;

  /// Asks the ingest thread to drain currently queued records and publish,
  /// then blocks until that publication (or shutdown) happens. Returns the
  /// snapshot current after the request was serviced.
  std::shared_ptr<const Snapshot> PublishNow();

  /// Graceful shutdown: rejects new records, drains the queue, publishes a
  /// final snapshot covering every ingested record, and joins the ingest
  /// thread. Idempotent.
  void Stop();

  /// Total records ingested into the index so far (monotonic).
  uint64_t inserted() const {
    return inserted_.load(std::memory_order_relaxed);
  }

  /// What startup recovery reconstructed (all-zero when durability is off
  /// or the directory was fresh).
  const RecoveryResult& recovery() const { return recovery_; }

  ServiceStats Stats() const;

 private:
  struct Deferred {};  // tag: construct members without starting the thread

  AnonymizationService(Deferred, size_t dim, Domain domain,
                       ServiceOptions options);

  /// Recovers from the WAL directory and opens the WAL writer. Must run
  /// before StartIngest — the tree is single-writer, and recovery is the
  /// constructor's turn at it.
  Status InitDurability();
  void StartIngest();

  void IngestLoop();
  void ApplyBatch(const IngestBatch& batch);
  /// Runs a WAL append or a checkpoint with bounded exponential-backoff
  /// retries (the WAL recovers its segment between append attempts). Gives
  /// up immediately once the WAL is poisoned — no retry can make an
  /// unprovable fsync provable.
  template <typename Op>
  Status WithRetries(Op op);
  /// Flips kServing -> kDegraded (read-only) recording the first reason.
  /// Idempotent; later calls keep the original reason.
  void EnterDegraded(const std::string& reason);
  /// Checkpoints when since_checkpoint_ crosses the configured cadence.
  void MaybeCheckpoint(bool force);
  /// Publishes iff the tree holds at least base_k records.
  void Publish();
  bool PublishPending() const {
    return publish_requested_.load(std::memory_order_acquire) >
           publish_serviced_.load(std::memory_order_acquire);
  }

  const size_t dim_;
  const ServiceOptions options_;
  const Domain domain_;

  IngestQueue queue_;
  IncrementalAnonymizer anonymizer_;  // ingest thread only
  DpCellCounter dp_cells_;            // ingest thread only
  uint64_t next_rid_ = 0;             // ingest thread only
  uint64_t since_snapshot_ = 0;       // ingest thread only

  // Durability (null / unused when options_.durability is disabled). The
  // WAL writer and checkpointer are driven exclusively by the ingest
  // thread, preserving the single-writer architecture: a record is
  // appended to the WAL before it is applied to the tree, and checkpoints
  // run between batches, when the tree is quiescent.
  std::unique_ptr<WalWriter> wal_;              // ingest thread only
  std::unique_ptr<Checkpointer> checkpointer_;  // ingest thread only
  uint64_t since_checkpoint_ = 0;               // ingest thread only
  RecoveryResult recovery_;  // written in ctor, read-only afterwards
  std::atomic<uint64_t> checkpoints_{0};
  std::atomic<uint64_t> last_checkpoint_lsn_{0};

  // Degradation state (see ServiceHealth). health_ only moves forward;
  // the reason string is written once, under degraded_mu_.
  std::atomic<ServiceHealth> health_{ServiceHealth::kServing};
  mutable std::mutex degraded_mu_;
  std::string degraded_reason_;
  std::atomic<uint64_t> wal_retries_{0};
  std::atomic<uint64_t> unavailable_{0};
  std::atomic<uint64_t> dropped_{0};

  // The published snapshot. A plain mutex rather than
  // std::atomic<std::shared_ptr>: snapshots are built entirely outside
  // the lock, so the critical section is one shared_ptr copy — and
  // libstdc++'s atomic shared_ptr spinlock is opaque to TSan, which this
  // code is required to run clean under.
  mutable std::mutex current_mu_;
  std::shared_ptr<const Snapshot> current_;

  // Counters (see ServiceStats for meanings; enqueued/rejected live in
  // the queue, under its lock).
  std::atomic<uint64_t> inserted_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> snapshots_{0};
  std::atomic<double> last_build_ms_{0.0};
  std::atomic<double> build_ms_total_{0.0};
  std::atomic<uint64_t> blocks_cloned_{0};
  std::atomic<uint64_t> blocks_shared_{0};

  // Ingest-thread time split (written by the ingest thread only; the
  // load+store is not a race because there is exactly one writer).
  std::atomic<double> queue_wait_ms_{0.0};
  std::atomic<double> apply_ms_{0.0};

  // On-demand publication handshake (see PublishNow / IngestLoop).
  std::atomic<uint64_t> publish_requested_{0};
  std::atomic<uint64_t> publish_serviced_{0};
  std::atomic<bool> ingest_done_{false};
  std::mutex publish_mu_;
  std::condition_variable publish_cv_;

  std::atomic<bool> stopping_{false};
  std::once_flag stop_once_;
  JoinableThread ingest_thread_;  // last member: joins before the rest dies
};

}  // namespace kanon

#endif  // KANON_SERVICE_ANONYMIZATION_SERVICE_H_
