#ifndef KANON_SHARD_SHARDED_SERVICE_H_
#define KANON_SHARD_SHARDED_SERVICE_H_

#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "service/anonymization_service.h"
#include "shard/shard_router.h"
#include "shard/stitched_snapshot.h"

namespace kanon {

/// Configuration of the sharded serving layer: one ServiceOptions applied
/// to every shard, plus the partitioning itself. Queue capacity, batch
/// size and snapshot cadence are per shard (N shards absorb N x the burst).
/// When durability is configured, `service.durability.wal_dir` is the root
/// directory; shard i owns the `shard-<i>/` subdirectory with its own WAL
/// segments, checkpoints and MANIFEST.
struct ShardedServiceOptions {
  ServiceOptions service;
  ShardingOptions sharding;
};

/// Aggregate + per-shard counters. `total` merges every kServiceCounters
/// field by its row's rule and carries the aggregated health (degraded if
/// any shard is degraded) and the first shard's degraded reason.
struct ShardedServiceStats {
  ServiceStats total;
  std::vector<ServiceStats> shards;
};

/// N independent AnonymizationServices behind one deterministic router —
/// the ROADMAP's "sharded multi-domain service". Each shard is the full
/// existing service: its own single-writer ingest thread, bounded queue,
/// WAL segment directory, checkpoint cadence and health state machine, so
/// ingest throughput scales with cores instead of the single-writer
/// ceiling (the SKALD construction: chunk the keyspace, k-anonymize each
/// chunk independently).
///
///   Ingest(p) --ShardRouter--> shard_i.Ingest(p)   (i = hash/range of p)
///   CurrentStitched()  <- one epoch snapshot per shard, concatenated
///
/// The k-bound guarantee survives stitching because released groups never
/// cross shards: every group of a stitched k1-release is a group of some
/// shard's own k1-release, and each shard's snapshot satisfies Lemma 1 on
/// its own records. Record ids (and WAL LSNs) are shard-local.
///
/// Durability: the shard layout (count, policy, dimensionality) is pinned
/// in a `SHARDS` file under the WAL root at first creation; reopening with
/// a mismatched --shards / --shard-by / dim is rejected rather than
/// silently splitting a shard's WAL stream across different trees.
class ShardedAnonymizationService {
 public:
  /// Creates every shard (running recovery per shard when durability is
  /// on). Any shard failure — including a shard-layout mismatch — fails
  /// the whole service as a Status.
  static StatusOr<std::unique_ptr<ShardedAnonymizationService>> Create(
      size_t dim, Domain domain, ShardedServiceOptions options = {});

  /// Stops all shards (see Stop) if still running.
  ~ShardedAnonymizationService();

  ShardedAnonymizationService(const ShardedAnonymizationService&) = delete;
  ShardedAnonymizationService& operator=(const ShardedAnonymizationService&) =
      delete;

  size_t dim() const { return dim_; }
  size_t num_shards() const { return shards_.size(); }
  const ShardedServiceOptions& options() const { return options_; }
  const ShardRouter& router() const { return router_; }
  const Domain& domain() const { return domain_; }

  /// Routes one record to its shard's queue. Same contract as the
  /// unsharded Ingest: blocks or returns ResourceExhausted under that
  /// shard's backpressure, Unavailable while that shard is degraded,
  /// FailedPrecondition after Stop.
  Status Ingest(std::span<const double> point, int32_t sensitive = 0);

  /// Aggregated health: degraded if ANY shard is degraded (the fleet has
  /// lost write availability for part of the keyspace), stopped only when
  /// every shard stopped, serving otherwise. Reads work in every state.
  ServiceHealth health() const;

  /// First degraded shard's reason, prefixed "shard <i>: " ("" if none).
  std::string degraded_reason() const;

  /// The current stitched view: every shard's latest epoch snapshot,
  /// concatenated. Null until at least one shard has published. There is
  /// one view per set of shard snapshots: calls between publications return
  /// the same object (so its rendered bodies are memoized once), and the
  /// first call after a shard publishes replaces it. Constant time per
  /// shard (one shared_ptr copy each); the returned object stays valid as
  /// long as the caller holds it, across Stop and republication.
  std::shared_ptr<const StitchedSnapshot> CurrentStitched() const;

  /// Asks every shard to drain + publish, then returns the stitched view.
  std::shared_ptr<const StitchedSnapshot> PublishNow();

  /// Stitched k1-release of the current view. FailedPrecondition while no
  /// shard has published yet.
  StatusOr<PartitionSet> GetRelease(size_t k1) const;

  /// Graceful shutdown: every shard drains and publishes concurrently (one
  /// joiner thread per shard), preserving the zero-lost-acknowledged-
  /// records guarantee shard by shard. Idempotent.
  void Stop();

  /// Total records applied across all shards.
  uint64_t inserted() const;

  AnonymizationService* shard(size_t i) { return shards_[i].get(); }
  const AnonymizationService* shard(size_t i) const {
    return shards_[i].get();
  }

  /// Startup recovery of shard i (all-zero when durability is off).
  const RecoveryResult& shard_recovery(size_t i) const {
    return shards_[i]->recovery();
  }

  ShardedServiceStats Stats() const;

 private:
  ShardedAnonymizationService(size_t dim, Domain domain,
                              ShardedServiceOptions options);

  const size_t dim_;
  const ShardedServiceOptions options_;
  const Domain domain_;
  const ShardRouter router_;
  std::vector<std::unique_ptr<AnonymizationService>> shards_;

  // The view CurrentStitched hands out, rebuilt only when a shard's
  // snapshot changed. A plain mutex for the same reason as
  // AnonymizationService::current_mu_.
  mutable std::mutex view_mu_;
  mutable std::shared_ptr<const StitchedSnapshot> view_;  // under view_mu_
};

/// `wal-root/shard-<i>` — the durability directory shard i owns.
std::string ShardWalDir(const std::string& root, size_t shard);

/// Validates (or, on first creation, records) the shard layout pinned
/// under `root`: shard count, routing policy and dimensionality must match
/// what the directory was created with. A root holding a pre-sharding
/// unsharded layout (a bare MANIFEST) is rejected with guidance. Exposed
/// for tests; Create calls it when durability is enabled.
Status CheckOrWriteShardLayout(const std::string& root, size_t num_shards,
                               ShardBy shard_by, size_t dim, Env* env);

}  // namespace kanon

#endif  // KANON_SHARD_SHARDED_SERVICE_H_
