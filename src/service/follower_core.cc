#include "service/follower_core.h"

#include <chrono>
#include <limits>
#include <utility>
#include <vector>

#include "durability/recovery.h"
#include "service/snapshot.h"

namespace kanon {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

FollowerCore::FollowerCore(size_t dim, Domain domain,
                           FollowerCoreOptions options)
    : dim_(dim), domain_(std::move(domain)), options_(std::move(options)) {
  anonymizer_ = std::make_unique<IncrementalAnonymizer>(
      dim_, options_.anonymizer, &domain_);
}

void FollowerCore::ConfigureFromLeader(size_t base_k,
                                       size_t leaf_capacity_factor,
                                       size_t max_fanout, bool compact,
                                       size_t dp_height) {
  // The DP grid height only affects publication (cell binning), not the
  // tree: adopting it never requires a rebuild.
  options_.dp_height = dp_height;
  RTreeAnonymizerOptions& opts = options_.anonymizer;
  if (opts.base_k == base_k &&
      opts.leaf_capacity_factor == leaf_capacity_factor &&
      opts.max_fanout == max_fanout && opts.compact == compact) {
    return;
  }
  opts.base_k = base_k;
  opts.leaf_capacity_factor = leaf_capacity_factor;
  opts.max_fanout = max_fanout;
  opts.compact = compact;
  ResetForBootstrap();
}

Status FollowerCore::AdoptCheckpoint(const CheckpointManifest& manifest,
                                     const std::string& local_path) {
  KANON_RETURN_IF_ERROR(
      LoadCheckpointInto(manifest, local_path, anonymizer_.get()));
  records_.store(anonymizer_->size(), std::memory_order_release);
  applied_lsn_.store(manifest.checkpoint_lsn, std::memory_order_release);
  return Status::OK();
}

void FollowerCore::ResetForBootstrap() {
  anonymizer_ = std::make_unique<IncrementalAnonymizer>(
      dim_, options_.anonymizer, &domain_);
  records_.store(0, std::memory_order_release);
  applied_lsn_.store(0, std::memory_order_release);
  // current_ is deliberately kept: readers hold the last good release until
  // the re-bootstrap catches up and publishes a newer leader epoch.
}

Status FollowerCore::Apply(uint64_t lsn, std::span<const double> point,
                           int32_t sensitive) {
  const uint64_t applied = applied_lsn_.load(std::memory_order_relaxed);
  if (lsn != applied + 1) {
    return Status::Internal("replication gap: expected lsn " +
                            std::to_string(applied + 1) + ", got " +
                            std::to_string(lsn));
  }
  if (point.size() != dim_) {
    return Status::Corruption("replicated entry has wrong dimensionality");
  }
  // Same identity as leader recovery replay: record id == lsn - 1, so the
  // follower's rid space is bit-compatible with the leader's.
  anonymizer_->Insert(point, static_cast<RecordId>(lsn - 1), sensitive);
  records_.store(anonymizer_->size(), std::memory_order_release);
  applied_lsn_.store(lsn, std::memory_order_release);
  return Status::OK();
}

bool FollowerCore::PublishEpoch(uint64_t epoch) {
  const RPlusTree& tree = anonymizer_->tree();
  const size_t base_k = options_.anonymizer.base_k;
  if (tree.size() < base_k) return false;
  // Idempotence is on the (epoch, records) pair, not a monotonic epoch: a
  // restarted leader renumbers epochs from 1, and the follower must keep
  // matching its publication points rather than freeze on the old number.
  if (epoch == epoch_.load(std::memory_order_relaxed) &&
      tree.size() == published_records_.load(std::memory_order_relaxed)) {
    return false;
  }
  // The leader publishes through the same BuildSnapshot: the follower
  // replays records in LSN order into an identically configured tree, so
  // the leaf groups, every k1 release and the DP cell counts come out
  // identical to the leader's at the same (epoch, records) point.
  std::shared_ptr<const Snapshot> snapshot = BuildSnapshot(
      tree, domain_, options_.anonymizer, options_.dp_height, epoch);
  const uint64_t records = snapshot->info().records;
  auto current = std::make_shared<const StitchedSnapshot>(
      std::vector<std::shared_ptr<const Snapshot>>{std::move(snapshot)},
      domain_);
  {
    std::lock_guard<std::mutex> lock(current_mu_);
    current_ = std::move(current);
  }
  epoch_.store(epoch, std::memory_order_release);
  published_records_.store(records, std::memory_order_release);
  return true;
}

void FollowerCore::MarkCaughtUp() {
  caught_up_ns_.store(NowNs(), std::memory_order_release);
}

double FollowerCore::staleness_ms() const {
  const int64_t at = caught_up_ns_.load(std::memory_order_acquire);
  if (at == 0) return std::numeric_limits<double>::infinity();
  return static_cast<double>(NowNs() - at) / 1e6;
}

std::shared_ptr<const StitchedSnapshot> FollowerCore::CurrentStitched()
    const {
  std::lock_guard<std::mutex> lock(current_mu_);
  return current_;
}

}  // namespace kanon
