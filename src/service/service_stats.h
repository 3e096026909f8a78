#ifndef KANON_SERVICE_SERVICE_STATS_H_
#define KANON_SERVICE_SERVICE_STATS_H_

#include <cstdint>
#include <string>

#include "metrics/histogram.h"

namespace kanon {

/// Health state machine of the serving layer. Transitions only move right:
///
///   kServing ──(persistent WAL/checkpoint failure)──> kDegraded
///   kServing ──(Stop)──> kStopped
///
/// Degraded means read-only: ingest is rejected with Unavailable, but the
/// last published snapshot keeps serving releases — losing durability must
/// not take query availability down with it. A degraded service stays
/// degraded through Stop() so the final report shows what happened; only a
/// restart (which re-runs recovery) returns to kServing.
enum class ServiceHealth { kServing, kDegraded, kStopped };

/// Lower-case human name ("serving", "degraded", "stopped").
const char* ServiceHealthName(ServiceHealth health);

/// A point-in-time view of the service's counters, assembled by
/// AnonymizationService::Stats(). All counts are cumulative since start.
struct ServiceStats {
  uint64_t enqueued = 0;   // records accepted into the queue
  uint64_t rejected = 0;   // records refused by kReject backpressure
  uint64_t inserted = 0;   // records applied to the index
  uint64_t batches = 0;    // tree critical sections taken
  uint64_t snapshots = 0;  // snapshot publications (== current epoch)
  size_t queue_depth = 0;  // records waiting right now

  /// Distribution of drained batch sizes — how well batching amortizes the
  /// tree critical section (mean batch size = inserted / batches).
  Histogram batch_sizes;

  double last_snapshot_build_ms = 0.0;
  double snapshot_build_ms_total = 0.0;  // total time building snapshots
  double snapshot_age_s = 0.0;  // 0 before the first publication

  // Ingest-thread time attribution: of the thread's life, how much was
  // spent waiting to drain the queue vs applying batches (WAL append +
  // tree inserts); mean_apply_ms() is the per-batch apply cost.
  double queue_wait_ms = 0.0;
  double apply_ms = 0.0;

  // Durability counters (all zero when the service runs without a WAL).
  bool durable = false;          // a WAL directory is configured
  uint64_t recovered = 0;        // records restored at startup
  uint64_t wal_appended = 0;     // records logged
  uint64_t wal_bytes = 0;        // WAL bytes written (framing + payload)
  uint64_t wal_syncs = 0;        // fsyncs issued by group commit
  uint64_t wal_synced_lsn = 0;   // crash-durable LSN horizon
  uint64_t checkpoints = 0;      // checkpoints taken
  uint64_t last_checkpoint_lsn = 0;

  // Failure handling (see ServiceHealth).
  ServiceHealth health = ServiceHealth::kServing;
  uint64_t wal_retries = 0;      // transient append failures retried
  uint64_t wal_recoveries = 0;   // WAL segment recoveries (torn-write cleanup)
  uint64_t unavailable = 0;      // ingests rejected while degraded
  uint64_t dropped = 0;          // accepted records discarded by degradation
  bool wal_poisoned = false;     // an fsync failed; WAL permanently down
  std::string degraded_reason;   // first fatal error ("" while serving)

  double mean_batch() const {
    return batches == 0
               ? 0.0
               : static_cast<double>(inserted) / static_cast<double>(batches);
  }
  double mean_queue_wait_ms() const {
    return batches == 0 ? 0.0 : queue_wait_ms / static_cast<double>(batches);
  }
  double mean_apply_ms() const {
    return batches == 0 ? 0.0 : apply_ms / static_cast<double>(batches);
  }
};

/// One-paragraph rendering for CLI / bench output.
std::string FormatServiceStats(const ServiceStats& stats);

}  // namespace kanon

#endif  // KANON_SERVICE_SERVICE_STATS_H_
