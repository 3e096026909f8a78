#ifndef KANON_SERVICE_FOLLOWER_CORE_H_
#define KANON_SERVICE_FOLLOWER_CORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>

#include "anon/rtree_anonymizer.h"
#include "common/status.h"
#include "data/dataset.h"
#include "durability/checkpoint.h"
#include "shard/stitched_snapshot.h"

namespace kanon {

struct FollowerCoreOptions {
  RTreeAnonymizerOptions anonymizer;
  /// A follower whose last caught-up confirmation is older than this is
  /// stale: its releases may lag the leader arbitrarily. The serving layer
  /// degrades /healthz (and optionally rejects reads) off fresh().
  uint64_t max_staleness_ms = 5000;
  /// DP grid height (see ServiceOptions::dp_height). Overwritten from the
  /// leader's manifest by ConfigureFromLeader — follower and leader must
  /// bin records into the same cells or their DP releases would diverge.
  size_t dp_height = 10;
};

/// The network-free half of a read replica: an IncrementalAnonymizer fed by
/// replication (checkpoint adoption + in-order WAL application) instead of
/// by an ingest queue, publishing epoch snapshots at the *leader's* epoch
/// numbers so a caught-up follower's /release body is byte-identical to the
/// leader's at the same epoch.
///
/// Threading contract (mirrors AnonymizationService): exactly one apply
/// thread calls AdoptCheckpoint / ResetForBootstrap / Apply / PublishEpoch /
/// MarkCaughtUp; any number of serving threads call CurrentStitched(),
/// applied_lsn(), epoch(), staleness_ms() and fresh() concurrently with it.
class FollowerCore {
 public:
  FollowerCore(size_t dim, Domain domain, FollowerCoreOptions options);

  FollowerCore(const FollowerCore&) = delete;
  FollowerCore& operator=(const FollowerCore&) = delete;

  /// Reconfigures the anonymizer from the leader's manifest — base_k and
  /// tree shape must match the leader's or releases would diverge, so the
  /// follower takes them from the wire instead of trusting local flags.
  /// Apply-thread only, and only while the core is empty (bootstrap).
  /// No-op when the configuration already matches.
  void ConfigureFromLeader(size_t base_k, size_t leaf_capacity_factor,
                           size_t max_fanout, bool compact,
                           size_t dp_height);

  /// Adopts a leader checkpoint already downloaded to `local_path` through
  /// LoadCheckpointInto, which also CRC-checks the download.
  /// Requires a fresh core (ResetForBootstrap first when re-bootstrapping).
  /// On success applied_lsn() == manifest.checkpoint_lsn.
  Status AdoptCheckpoint(const CheckpointManifest& manifest,
                         const std::string& local_path);

  /// Discards the index and replay position for a re-bootstrap (the leader
  /// GC'd the WAL range we were tailing). The last published snapshot stays
  /// up: readers keep getting the old-but-consistent release while the new
  /// bootstrap runs; only the staleness clock gives the lag away.
  void ResetForBootstrap();

  /// Applies one WAL entry. `lsn` must be exactly applied_lsn() + 1 — the
  /// replication client re-requests from applied_lsn()+1 after any
  /// transport fault, so a gap here means a protocol bug, not a flaky
  /// network. Record id is lsn - 1, same as leader recovery replay.
  Status Apply(uint64_t lsn, std::span<const double> point,
               int32_t sensitive);

  /// Publishes the current index as the leader's epoch `epoch` (forced, not
  /// locally counted: epochs name leader publication points). Returns false
  /// when the index holds fewer than base_k records (nothing publishable)
  /// or when (epoch, records) matches what is already published. Epochs are
  /// NOT required to advance: a restarted leader renumbers from 1 (its
  /// epoch counter is in-memory), so the publication point is the
  /// (epoch, records) pair, not the epoch alone.
  bool PublishEpoch(uint64_t epoch);

  /// Counts one completed bootstrap (checkpoint-based or WAL-only).
  void NoteBootstrap() { bootstraps_.fetch_add(1, std::memory_order_relaxed); }

  /// Resets the staleness clock: the caller just confirmed with the leader
  /// that applied_lsn/epoch are current (an up-to-date poll counts even if
  /// it carried zero entries).
  void MarkCaughtUp();

  uint64_t applied_lsn() const {
    return applied_lsn_.load(std::memory_order_acquire);
  }
  /// Last published (leader) epoch; 0 = nothing published yet. May move
  /// backward across a leader restart (see PublishEpoch).
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  uint64_t records() const { return records_.load(std::memory_order_acquire); }
  /// Record count of the last published snapshot (0 = nothing published).
  uint64_t published_records() const {
    return published_records_.load(std::memory_order_acquire);
  }
  uint64_t bootstraps() const {
    return bootstraps_.load(std::memory_order_relaxed);
  }

  /// Milliseconds since the last MarkCaughtUp; effectively infinite before
  /// the first one (a follower is stale until proven fresh).
  double staleness_ms() const;
  bool fresh() const {
    return staleness_ms() <= static_cast<double>(options_.max_staleness_ms);
  }
  uint64_t max_staleness_ms() const { return options_.max_staleness_ms; }

  /// The follower's current release point as a 1-shard stitched snapshot —
  /// the exact shape RenderRelease consumes, so leader and follower share
  /// one serializer. Null until the first PublishEpoch.
  std::shared_ptr<const StitchedSnapshot> CurrentStitched() const;

  size_t dim() const { return dim_; }

 private:
  const size_t dim_;
  const Domain domain_;
  FollowerCoreOptions options_;  // anonymizer part mutable pre-bootstrap

  std::unique_ptr<IncrementalAnonymizer> anonymizer_;  // apply thread only
  std::atomic<uint64_t> applied_lsn_{0};
  std::atomic<uint64_t> records_{0};  // == anonymizer_->size(), readable anywhere
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint64_t> published_records_{0};
  std::atomic<uint64_t> bootstraps_{0};
  /// steady_clock nanos of the last MarkCaughtUp; 0 = never.
  std::atomic<int64_t> caught_up_ns_{0};

  mutable std::mutex current_mu_;
  std::shared_ptr<const StitchedSnapshot> current_;
};

}  // namespace kanon

#endif  // KANON_SERVICE_FOLLOWER_CORE_H_
