#include "service/service_stats.h"

#include <algorithm>
#include <sstream>

namespace kanon {

const char* ServiceHealthName(ServiceHealth health) {
  switch (health) {
    case ServiceHealth::kServing:
      return "serving";
    case ServiceHealth::kDegraded:
      return "degraded";
    case ServiceHealth::kStopped:
      return "stopped";
  }
  return "unknown";
}

double CounterValue(const ServiceCounter& counter, const ServiceStats& stats) {
  return std::visit(
      [&](auto field) { return static_cast<double>(stats.*field); },
      counter.field);
}

void MergeShardStats(const ServiceStats& shard, ServiceStats* total) {
  for (const ServiceCounter& counter : kServiceCounters) {
    std::visit(
        [&](auto field) {
          auto& into = total->*field;
          const auto value = shard.*field;
          switch (counter.merge) {
            case ShardMerge::kSum:
              into += value;
              break;
            case ShardMerge::kMax:
              into = std::max(into, value);
              break;
            case ShardMerge::kAny:
              into = into || value;
              break;
          }
        },
        counter.field);
  }
}

std::string FormatServiceStats(const ServiceStats& stats) {
  std::ostringstream os;
  os << "ingest: enqueued=" << stats.enqueued
     << " rejected=" << stats.rejected << " inserted=" << stats.inserted
     << " queued=" << stats.queue_depth << "\n";
  os << "batches: count=" << stats.batches << " mean_size=";
  os.precision(1);
  os << std::fixed << stats.mean_batch() << "\n";
  os.precision(2);
  os << "ingest_thread: queue_wait_ms=" << stats.queue_wait_ms
     << " apply_ms=" << stats.apply_ms
     << " mean_queue_wait_ms=" << stats.mean_queue_wait_ms()
     << " mean_apply_ms=" << stats.mean_apply_ms() << "\n";
  os << "snapshots: published=" << stats.snapshots
     << " last_build_ms=" << stats.last_snapshot_build_ms
     << " build_ms_total=" << stats.snapshot_build_ms_total
     << " age_s=" << stats.snapshot_age_s;
  if (stats.durable) {
    os << "\ndurability: recovered=" << stats.recovered
       << " wal_appended=" << stats.wal_appended
       << " wal_bytes=" << stats.wal_bytes << " wal_syncs=" << stats.wal_syncs
       << " synced_lsn=" << stats.wal_synced_lsn
       << " checkpoints=" << stats.checkpoints
       << " last_checkpoint_lsn=" << stats.last_checkpoint_lsn;
  }
  os << "\nhealth: state=" << ServiceHealthName(stats.health)
     << " wal_retries=" << stats.wal_retries
     << " wal_recoveries=" << stats.wal_recoveries
     << " unavailable=" << stats.unavailable << " dropped=" << stats.dropped;
  if (stats.wal_poisoned) os << " wal_poisoned=1";
  if (!stats.degraded_reason.empty()) {
    os << "\ndegraded: " << stats.degraded_reason;
  }
  return os.str();
}

}  // namespace kanon
