#ifndef KANON_SERVICE_SNAPSHOT_H_
#define KANON_SERVICE_SNAPSHOT_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "anon/leaf_scan.h"
#include "anon/partition.h"
#include "data/dataset.h"
#include "dp/dp_hierarchy.h"
#include "index/bulk_load.h"
#include "index/leaf_block.h"
#include "index/rplus_tree.h"

namespace kanon {

/// Metadata of one published snapshot.
struct SnapshotInfo {
  uint64_t epoch = 0;     // monotonically increasing publication counter
  uint64_t records = 0;   // live records covered (releasable) by it
  size_t base_k = 0;      // minimum granularity any release can request
  double build_ms = 0.0;  // BuildSnapshot's time: block pointers + DP cells
  /// Leaf blocks this snapshot is the first to hold (written since the
  /// previous publication: clones of frozen blocks, split halves) and
  /// blocks it shares with the previous snapshot unchanged.
  uint64_t blocks_cloned = 0;
  uint64_t blocks_shared = 0;
  std::chrono::steady_clock::time_point created{};

  double AgeSeconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         created)
        .count();
  }
};

/// One immutable per-leaf release fragment: the leaf's frozen block (its
/// record ids, MBR and region), shared with the live tree until the writer
/// replaces it.
using LeafFragment = BlockRef<const LeafBlock>;

/// Exact per-cell resident counts over the canonical DP bisection grid
/// (dp/dp_hierarchy.h): entry i counts the records in leaf cell i of the
/// DpGrid of the snapshot's domain at the publisher's dp_height. These are
/// raw exact counts and are NEVER served; the serving layer feeds them
/// through the geometric mechanism (dp/dp_release.h) and only the noisy
/// hierarchy leaves the process.
using DpCells = std::shared_ptr<const std::vector<uint64_t>>;

/// The exact DP cell counts of a live tree, kept by the tree's writer so
/// that a publication copies the cells (1,024 at height 10) instead of
/// re-binning every record. The writer calls Add for every record it
/// applies, and Recount after it replaces the tree wholesale (recovery,
/// checkpoint adoption). The counts are a pure function of the record
/// multiset, so they equal a rescan of the tree at every point, per-shard
/// vectors sum, and a follower replaying the same records reproduces them.
class DpCellCounter {
 public:
  /// `height` 0 keeps no counts (DP accounting off).
  DpCellCounter(const Domain& domain, size_t height);

  size_t height() const { return grid_ ? grid_->height() : 0; }

  /// Counts one applied record.
  void Add(std::span<const double> point) {
    if (grid_) ++cells_[grid_->LeafCell(point)];
  }

  /// Replaces the counts by a scan of every record of `tree`.
  void Recount(const RPlusTree& tree);

  /// A copy for a snapshot to own; null at height 0.
  DpCells Copy() const;

 private:
  std::optional<DpGrid> grid_;
  std::vector<uint64_t> cells_;
};

/// An immutable, shareable release point of the anonymization service: the
/// ordered leaf blocks of the index at publication time plus the data
/// domain. Because partitions released from a snapshot are unions of whole
/// leaves, Lemma 1 makes every granularity k1 >= base_k — and any number
/// of them — jointly k-anonymous, so a snapshot can serve arbitrarily many
/// Release calls from arbitrarily many threads with no synchronization at
/// all.
class Snapshot {
 public:
  /// Snapshots come from BuildSnapshot below. Every leaf is published as
  /// its MBR: the compacted generalized value of the paper's Section 4.
  Snapshot(std::vector<LeafFragment> fragments, Domain domain,
           SnapshotInfo info, DpCells dp_cells, size_t dp_height)
      : fragments_(std::move(fragments)),
        domain_(std::move(domain)),
        info_(info),
        dp_cells_(std::move(dp_cells)),
        dp_height_(dp_height) {}

  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  const SnapshotInfo& info() const { return info_; }
  const Domain& domain() const { return domain_; }
  const std::vector<LeafFragment>& fragments() const { return fragments_; }

  /// Exact DP grid cell counts of every record this snapshot covers. Null
  /// when the publisher ran with DP accounting off (dp_height 0).
  const DpCells& dp_cells() const { return dp_cells_; }
  size_t dp_height() const { return dp_height_; }

  /// Emits the k1-granular anonymization of this snapshot's records via the
  /// leaf-scan algorithm. k1 below base_k is clamped up to base_k (the index
  /// cannot publish finer than its leaves). Const, allocation-local,
  /// lock-free: safe from any thread while the service keeps ingesting.
  PartitionSet Release(size_t k1) const;

  /// Release(k1) without the record ids: each partition's record count and
  /// box, in the same order, with no rid copied.
  std::vector<PartitionBox> ReleaseBoxes(size_t k1) const;

 private:
  std::vector<LeafFragment> fragments_;
  Domain domain_;
  SnapshotInfo info_;
  DpCells dp_cells_;
  size_t dp_height_ = 0;
};

/// Builds the release point of `tree` as publication `epoch`: the block of
/// every leaf in tree order, frozen so the writer clones it before its next
/// change, and a copy of the writer's DP cell counts `dp`. No record is
/// copied: the cost is one pointer per leaf plus the cells. The leader's
/// service, every shard and a replication follower publish through this
/// one function, so a follower that replayed the leader's records into an
/// identically configured tree serves byte-identical releases at the same
/// (epoch, records) point. Writer thread only (it freezes blocks). The
/// caller guarantees tree.size() >= base_k.
std::shared_ptr<const Snapshot> BuildSnapshot(const RPlusTree& tree,
                                              const Domain& domain,
                                              size_t base_k,
                                              const DpCellCounter& dp,
                                              uint64_t epoch);

/// Mean per-record, per-attribute extent ratio of a partition set against
/// `domain` — the numeric-attribute NCP, computable without the backing
/// dataset (which the serving layer never exposes to readers).
double AverageBoxNcp(const PartitionSet& ps, const Domain& domain);
double AverageBoxNcp(std::span<const PartitionBox> parts, const Domain& domain);

}  // namespace kanon

#endif  // KANON_SERVICE_SNAPSHOT_H_
