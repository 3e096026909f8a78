#include "service/anonymization_service.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/timer.h"

namespace kanon {

AnonymizationService::AnonymizationService(Deferred, size_t dim,
                                           Domain domain,
                                           ServiceOptions options)
    : dim_(dim),
      options_(options),
      domain_(std::move(domain)),
      queue_(dim, options_.queue_capacity, options_.backpressure),
      anonymizer_(dim, options_.anonymizer, &domain_),
      dp_cells_(domain_, options_.dp_height) {
  KANON_CHECK(dim >= 1 && domain_.dim() == dim);
  KANON_CHECK(options_.max_batch >= 1);
}

AnonymizationService::AnonymizationService(size_t dim, Domain domain,
                                           ServiceOptions options)
    : AnonymizationService(Deferred{}, dim, std::move(domain), options) {
  const Status status = InitDurability();
  KANON_CHECK_MSG(status.ok(), "durability init failed: " << status);
  StartIngest();
}

StatusOr<std::unique_ptr<AnonymizationService>> AnonymizationService::Create(
    size_t dim, Domain domain, ServiceOptions options) {
  std::unique_ptr<AnonymizationService> service(
      new AnonymizationService(Deferred{}, dim, std::move(domain), options));
  KANON_RETURN_IF_ERROR(service->InitDurability());
  service->StartIngest();
  return service;
}

Status AnonymizationService::InitDurability() {
  const DurabilityOptions& d = options_.durability;
  if (!d.enabled()) return Status::OK();
  Env* env = d.env != nullptr ? d.env : Env::Default();
  KANON_RETURN_IF_ERROR(env->CreateDirs(d.wal_dir));
  RecoveryOptions recovery_options;
  recovery_options.dir = d.wal_dir;
  recovery_options.env = env;
  KANON_ASSIGN_OR_RETURN(recovery_,
                         RecoverInto(recovery_options, &anonymizer_));
  next_rid_ = recovery_.next_lsn - 1;
  dp_cells_.Recount(anonymizer_.tree());
  WalOptions wal_options;
  wal_options.fsync_every = d.fsync_every;
  wal_options.segment_bytes = d.segment_bytes;
  KANON_ASSIGN_OR_RETURN(
      wal_, WalWriter::Open(d.wal_dir, dim_, recovery_.next_lsn,
                            wal_options, env));
  checkpointer_ = std::make_unique<Checkpointer>(
      d.wal_dir, Checkpointer::kCheckpointPageSize, env);
  // Recovered records are pre-thread state: publishing here is safe (no
  // ingest thread exists yet) and lets readers see the restored release
  // immediately after a restart.
  if (recovery_.recovered > 0) Publish();
  return Status::OK();
}

void AnonymizationService::StartIngest() {
  ingest_thread_ = JoinableThread([this] { IngestLoop(); });
}

AnonymizationService::~AnonymizationService() { Stop(); }

Status AnonymizationService::Ingest(std::span<const double> point,
                                    int32_t sensitive) {
  KANON_CHECK(point.size() == dim_);
  if (stopping_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("service is stopped");
  }
  if (health_.load(std::memory_order_acquire) == ServiceHealth::kDegraded) {
    // Read-only: the last snapshot keeps serving, new records are refused
    // (an accepted record the WAL cannot log would silently lose
    // durability). Records that slipped into the queue before the
    // transition are drained and counted as dropped by the ingest thread.
    unavailable_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("service is degraded to read-only: " +
                               degraded_reason());
  }
  return queue_.Enqueue(point, sensitive);
}

StatusOr<PartitionSet> AnonymizationService::GetRelease(size_t k1) const {
  const std::shared_ptr<const Snapshot> snapshot = CurrentSnapshot();
  if (snapshot == nullptr) {
    return Status::FailedPrecondition("no snapshot published yet");
  }
  return snapshot->Release(k1);
}

std::shared_ptr<const Snapshot> AnonymizationService::PublishNow() {
  if (ingest_done_.load(std::memory_order_acquire)) return CurrentSnapshot();
  const uint64_t ticket =
      publish_requested_.fetch_add(1, std::memory_order_acq_rel) + 1;
  queue_.Notify();
  std::unique_lock<std::mutex> lock(publish_mu_);
  publish_cv_.wait(lock, [&] {
    return publish_serviced_.load(std::memory_order_acquire) >= ticket ||
           ingest_done_.load(std::memory_order_acquire);
  });
  lock.unlock();
  return CurrentSnapshot();
}

void AnonymizationService::Stop() {
  std::call_once(stop_once_, [this] {
    stopping_.store(true, std::memory_order_release);
    queue_.Close();
    ingest_thread_.Join();
    // A degraded service stays degraded — the final report must show it.
    ServiceHealth expected = ServiceHealth::kServing;
    health_.compare_exchange_strong(expected, ServiceHealth::kStopped,
                                    std::memory_order_acq_rel);
  });
}

ServiceStats AnonymizationService::Stats() const {
  ServiceStats stats;
  stats.enqueued = queue_.total_enqueued();
  stats.rejected = queue_.total_rejected();
  stats.inserted = inserted_.load(std::memory_order_relaxed);
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.snapshots = snapshots_.load(std::memory_order_relaxed);
  stats.queue_depth = queue_.pending();
  stats.last_snapshot_build_ms =
      last_build_ms_.load(std::memory_order_relaxed);
  stats.snapshot_build_ms_total =
      build_ms_total_.load(std::memory_order_relaxed);
  stats.publish_blocks_cloned = blocks_cloned_.load(std::memory_order_relaxed);
  stats.publish_blocks_shared = blocks_shared_.load(std::memory_order_relaxed);
  stats.queue_wait_ms = queue_wait_ms_.load(std::memory_order_relaxed);
  stats.apply_ms = apply_ms_.load(std::memory_order_relaxed);
  if (const auto snapshot = CurrentSnapshot()) {
    stats.snapshot_age_s = snapshot->info().AgeSeconds();
  }
  if (wal_ != nullptr) {
    stats.durable = true;
    stats.recovered = recovery_.recovered;
    const WalStats wal = wal_->stats();
    stats.wal_appended = wal.appended;
    stats.wal_bytes = wal.bytes;
    stats.wal_syncs = wal.syncs;
    stats.wal_synced_lsn = wal.synced_lsn;
    stats.wal_recoveries = wal.recoveries;
    stats.wal_poisoned = wal_->poisoned();
    stats.checkpoints = checkpoints_.load(std::memory_order_relaxed);
    stats.last_checkpoint_lsn =
        last_checkpoint_lsn_.load(std::memory_order_relaxed);
  }
  stats.health = health_.load(std::memory_order_acquire);
  stats.wal_retries = wal_retries_.load(std::memory_order_relaxed);
  stats.unavailable = unavailable_.load(std::memory_order_relaxed);
  stats.dropped = dropped_.load(std::memory_order_relaxed);
  stats.degraded_reason = degraded_reason();
  return stats;
}

void AnonymizationService::IngestLoop() {
  // One reusable batch: after warm-up the drain/apply cycle allocates
  // nothing (Clear keeps the vectors' capacity).
  IngestBatch batch;
  batch.points.reserve(options_.max_batch * dim_);
  batch.sensitives.reserve(options_.max_batch);
  for (;;) {
    batch.Clear();
    Timer wait_timer;
    const size_t n = queue_.DrainBatch(&batch, options_.max_batch,
                                       [this] { return PublishPending(); });
    // Single writer: load+add+store is race-free on these atomics.
    queue_wait_ms_.store(queue_wait_ms_.load(std::memory_order_relaxed) +
                             wait_timer.ElapsedMillis(),
                         std::memory_order_relaxed);
    if (n > 0) {
      Timer apply_timer;
      ApplyBatch(batch);
      apply_ms_.store(apply_ms_.load(std::memory_order_relaxed) +
                          apply_timer.ElapsedMillis(),
                      std::memory_order_relaxed);
    }
    if (PublishPending()) {
      // Drain whatever producers managed to enqueue before the request so
      // the published snapshot is current, then service every waiter that
      // had a ticket when the build started.
      if (queue_.pending() > 0) continue;
      const uint64_t req =
          publish_requested_.load(std::memory_order_acquire);
      Publish();
      {
        std::lock_guard<std::mutex> lock(publish_mu_);
        publish_serviced_.store(req, std::memory_order_release);
      }
      publish_cv_.notify_all();
    } else if (options_.snapshot_every > 0 &&
               since_snapshot_ >= options_.snapshot_every) {
      Publish();
    }
    MaybeCheckpoint(/*force=*/false);
    if (n == 0 && queue_.closed() && queue_.pending() == 0) break;
  }
  // Final snapshot: cover every record that was ever ingested.
  if (since_snapshot_ > 0 || snapshots_.load(std::memory_order_relaxed) == 0) {
    Publish();
  }
  // Graceful stop makes everything durable: every record fsynced, and a
  // final checkpoint so the next start replays an empty WAL tail. A
  // failure here degrades rather than aborts — the records are already
  // served; only the durability promise for the un-synced suffix is lost,
  // and the final report says so.
  if (wal_ != nullptr &&
      health_.load(std::memory_order_acquire) == ServiceHealth::kServing) {
    const Status status = wal_->Sync();
    if (!status.ok()) {
      EnterDegraded("final wal sync failed: " + status.ToString());
    } else {
      MaybeCheckpoint(/*force=*/true);
    }
  }
  {
    std::lock_guard<std::mutex> lock(publish_mu_);
    ingest_done_.store(true, std::memory_order_release);
  }
  publish_cv_.notify_all();
}

template <typename Op>
Status AnonymizationService::WithRetries(Op op) {
  const DurabilityOptions& d = options_.durability;
  Status status = op();
  uint64_t backoff_ms = d.retry_backoff_ms;
  for (size_t attempt = 0;
       !status.ok() && attempt < kWalRetryLimit && !wal_->poisoned();
       ++attempt) {
    wal_retries_.fetch_add(1, std::memory_order_relaxed);
    if (backoff_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, d.retry_backoff_max_ms);
    }
    status = op();
  }
  return status;
}

void AnonymizationService::ApplyBatch(const IngestBatch& batch) {
  if (health_.load(std::memory_order_acquire) == ServiceHealth::kDegraded) {
    // Producers may have raced records into the queue before Ingest began
    // refusing them; drain-and-discard so blocked producers are released,
    // but never apply — degraded means the index no longer advances.
    dropped_.fetch_add(batch.size(), std::memory_order_relaxed);
    return;
  }
  size_t logged = batch.size();
  if (wal_ != nullptr) {
    // Log before apply: a record is never in the tree without being in the
    // WAL, so a crash at any point loses only un-fsynced suffix records —
    // never reorders or duplicates. Append failures are retried (the WAL
    // rebuilds its segment between attempts); a persistent failure
    // degrades the service instead of aborting it. Only the logged prefix
    // of the batch is applied — continuing would put records in the tree
    // that exist nowhere durable.
    for (size_t i = 0; i < batch.size(); ++i) {
      const Status status = WithRetries([&] {
        return wal_->Append(next_rid_ + i + 1, batch.point(i),
                            batch.sensitives[i]);
      });
      if (!status.ok()) {
        EnterDegraded("wal append failed: " + status.ToString());
        dropped_.fetch_add(batch.size() - i, std::memory_order_relaxed);
        logged = i;
        break;
      }
    }
  }
  for (size_t i = 0; i < logged; ++i) {
    anonymizer_.Insert(batch.point(i), next_rid_++, batch.sensitives[i]);
    dp_cells_.Add(batch.point(i));
  }
  if (logged == 0) return;
  inserted_.fetch_add(logged, std::memory_order_release);
  batches_.fetch_add(1, std::memory_order_relaxed);
  since_snapshot_ += logged;
  since_checkpoint_ += logged;
}

void AnonymizationService::EnterDegraded(const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(degraded_mu_);
    if (degraded_reason_.empty()) degraded_reason_ = reason;
  }
  ServiceHealth expected = ServiceHealth::kServing;
  health_.compare_exchange_strong(expected, ServiceHealth::kDegraded,
                                  std::memory_order_acq_rel);
}

void AnonymizationService::MaybeCheckpoint(bool force) {
  if (checkpointer_ == nullptr) return;
  if (health_.load(std::memory_order_acquire) != ServiceHealth::kServing) {
    return;
  }
  const uint64_t cadence = options_.durability.checkpoint_every;
  if (force ? since_checkpoint_ == 0
            : (cadence == 0 || since_checkpoint_ < cadence)) {
    return;
  }
  // Everything at or below the checkpoint LSN must survive a crash even if
  // its WAL segment is truncated right after, so sync first. A sync
  // failure poisons the WAL: nothing past synced_lsn can be proven
  // durable, so checkpointing at next_rid_ would overstate the truth.
  Status status = wal_->Sync();
  if (!status.ok()) {
    EnterDegraded("wal sync before checkpoint failed: " + status.ToString());
    return;
  }
  status = WithRetries(
      [&] { return checkpointer_->Checkpoint(anonymizer_.tree(), next_rid_); });
  if (!status.ok()) {
    // Checkpoint failure alone does not lose any record (the WAL still has
    // them all), but it means the WAL can never be truncated again —
    // unbounded growth — and the next recovery pays a full replay. Degrade
    // so the operator sees it; the previous checkpoint stays authoritative.
    EnterDegraded("checkpoint failed: " + status.ToString());
    return;
  }
  since_checkpoint_ = 0;
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  last_checkpoint_lsn_.store(next_rid_, std::memory_order_relaxed);
}

void AnonymizationService::Publish() {
  const RPlusTree& tree = anonymizer_.tree();
  // Fewer than k records cannot be k-anonymized at all.
  if (tree.size() < options_.anonymizer.base_k) return;
  // Publish implies durable: a release should never cover records a crash
  // could still un-assign (the WAL would hand their LSNs to different
  // records on restart). This also pins the replication contract — a
  // follower chasing a published epoch never needs WAL entries past the
  // leader's durable horizon. On sync failure the WAL poisons itself and
  // the next append degrades the service through the usual path; the
  // snapshot is still published (the records are in the tree and serving
  // reads is exactly what a degraded service keeps doing).
  if (wal_ != nullptr && !wal_->poisoned()) (void)wal_->Sync();
  const uint64_t epoch = snapshots_.load(std::memory_order_relaxed) + 1;
  std::shared_ptr<const Snapshot> snapshot = BuildSnapshot(
      tree, domain_, options_.anonymizer.base_k, dp_cells_, epoch);
  const SnapshotInfo& info = snapshot->info();
  const double build_ms = info.build_ms;
  blocks_cloned_.fetch_add(info.blocks_cloned, std::memory_order_relaxed);
  blocks_shared_.fetch_add(info.blocks_shared, std::memory_order_relaxed);
  snapshots_.store(epoch, std::memory_order_relaxed);
  last_build_ms_.store(build_ms, std::memory_order_relaxed);
  build_ms_total_.store(
      build_ms_total_.load(std::memory_order_relaxed) + build_ms,
      std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(current_mu_);
    current_.swap(snapshot);
  }
  // `snapshot` now holds the replaced release point. Dropping it here,
  // outside the readers' lock, frees its blocks off their path.
  snapshot.reset();
  since_snapshot_ = 0;
}

}  // namespace kanon
