#ifndef KANON_SERVICE_SERVICE_STATS_H_
#define KANON_SERVICE_SERVICE_STATS_H_

#include <cstdint>
#include <string>
#include <variant>

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
constexpr int kNumServiceHealths = 3;

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

  double last_snapshot_build_ms = 0.0;
  double snapshot_build_ms_total = 0.0;  // total time building snapshots
  // Leaf blocks publications took fresh (written since the previous
  // publication) vs re-shared unchanged: publish cost tracks the first.
  uint64_t publish_blocks_cloned = 0;
  uint64_t publish_blocks_shared = 0;
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

/// How ShardedAnonymizationService::Stats() folds one counter of every
/// shard into the service total.
enum class ShardMerge {
  kSum,  // counts, per-shard LSN horizons and cumulative times add up
  kMax,  // the worst shard: its latest build time, its stalest snapshot
  kAny,  // a flag is raised if any shard raised it
};

/// One exported service counter: a ServiceStats field, its Prometheus
/// series and its shard-merge rule.
struct ServiceCounter {
  const char* name;  // the aggregate series, "kanon_..."
  const char* type;  // "counter" or "gauge"
  ShardMerge merge;
  /// Also exported per shard as kanon_shard_<name without "kanon_">
  /// {shard="i"}; the rest stay aggregate so the exposition stays small at
  /// high shard counts.
  bool per_shard;
  std::variant<uint64_t ServiceStats::*, double ServiceStats::*,
               bool ServiceStats::*>
      field;
};

/// Every exported service counter, in /metrics order. The shard
/// aggregation and the leader's /metrics both iterate this table; only
/// `health` and `degraded_reason` are merged and rendered by hand.
inline constexpr ServiceCounter kServiceCounters[] = {
    {"kanon_enqueued_total", "counter", ShardMerge::kSum, true,
     &ServiceStats::enqueued},
    {"kanon_rejected_total", "counter", ShardMerge::kSum, true,
     &ServiceStats::rejected},
    {"kanon_inserted_total", "counter", ShardMerge::kSum, true,
     &ServiceStats::inserted},
    {"kanon_batches_total", "counter", ShardMerge::kSum, false,
     &ServiceStats::batches},
    {"kanon_snapshots_total", "counter", ShardMerge::kSum, true,
     &ServiceStats::snapshots},
    {"kanon_queue_depth", "gauge", ShardMerge::kSum, true,
     &ServiceStats::queue_depth},
    {"kanon_snapshot_age_seconds", "gauge", ShardMerge::kMax, false,
     &ServiceStats::snapshot_age_s},
    {"kanon_last_snapshot_build_ms", "gauge", ShardMerge::kMax, false,
     &ServiceStats::last_snapshot_build_ms},
    {"kanon_durable", "gauge", ShardMerge::kAny, false,
     &ServiceStats::durable},
    {"kanon_recovered_total", "counter", ShardMerge::kSum, true,
     &ServiceStats::recovered},
    {"kanon_wal_appended_total", "counter", ShardMerge::kSum, true,
     &ServiceStats::wal_appended},
    {"kanon_wal_bytes_total", "counter", ShardMerge::kSum, false,
     &ServiceStats::wal_bytes},
    {"kanon_wal_syncs_total", "counter", ShardMerge::kSum, false,
     &ServiceStats::wal_syncs},
    {"kanon_wal_synced_lsn", "gauge", ShardMerge::kSum, false,
     &ServiceStats::wal_synced_lsn},
    {"kanon_checkpoints_total", "counter", ShardMerge::kSum, false,
     &ServiceStats::checkpoints},
    {"kanon_last_checkpoint_lsn", "gauge", ShardMerge::kSum, false,
     &ServiceStats::last_checkpoint_lsn},
    {"kanon_wal_retries_total", "counter", ShardMerge::kSum, false,
     &ServiceStats::wal_retries},
    {"kanon_wal_recoveries_total", "counter", ShardMerge::kSum, false,
     &ServiceStats::wal_recoveries},
    {"kanon_unavailable_total", "counter", ShardMerge::kSum, false,
     &ServiceStats::unavailable},
    {"kanon_dropped_total", "counter", ShardMerge::kSum, false,
     &ServiceStats::dropped},
    {"kanon_wal_poisoned", "gauge", ShardMerge::kAny, false,
     &ServiceStats::wal_poisoned},
    {"kanon_snapshot_build_ms_total", "counter", ShardMerge::kSum, false,
     &ServiceStats::snapshot_build_ms_total},
    {"kanon_publish_blocks_cloned_total", "counter", ShardMerge::kSum, false,
     &ServiceStats::publish_blocks_cloned},
    {"kanon_publish_blocks_shared_total", "counter", ShardMerge::kSum, false,
     &ServiceStats::publish_blocks_shared},
    {"kanon_ingest_queue_wait_ms_total", "counter", ShardMerge::kSum, false,
     &ServiceStats::queue_wait_ms},
    {"kanon_ingest_apply_ms_total", "counter", ShardMerge::kSum, false,
     &ServiceStats::apply_ms},
};

/// `counter`'s field of `stats` as a sample value.
double CounterValue(const ServiceCounter& counter, const ServiceStats& stats);

/// Folds every kServiceCounters field of one shard's `shard` stats into
/// `total` by the counter's merge rule.
void MergeShardStats(const ServiceStats& shard, ServiceStats* total);

/// One-paragraph rendering for CLI / bench output.
std::string FormatServiceStats(const ServiceStats& stats);

}  // namespace kanon

#endif  // KANON_SERVICE_SERVICE_STATS_H_
