#ifndef KANON_SHARD_STITCHED_SNAPSHOT_H_
#define KANON_SHARD_STITCHED_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "service/snapshot.h"

namespace kanon {

/// Metadata of one stitched multi-shard release point. Per-shard epochs are
/// recorded verbatim (0 = that shard has not published yet) so the
/// staleness of every slice of a stitched release is observable: shard i's
/// records are exactly as fresh as its own epoch, no fresher.
struct StitchedInfo {
  uint64_t records = 0;  // sum over covered (published) shards
  size_t base_k = 0;
  size_t num_shards = 0;
  /// Sum of the per-shard epochs: monotone under any interleaving of
  /// per-shard publications, and equal to the single shard's epoch when
  /// num_shards == 1 (the unsharded-compatibility case).
  uint64_t epoch = 0;
  std::vector<uint64_t> shard_epochs;   // size num_shards, 0 = unpublished
  std::vector<uint64_t> shard_records;  // size num_shards
};

/// An immutable multi-shard release point: one epoch snapshot per shard
/// (entries are null until that shard first publishes), stitched into a
/// single consistent view. Releases concatenate per-shard partition lists
/// in shard order — groups never cross a shard boundary, so every group of
/// a stitched k1-release comes from exactly one shard's k1-release and the
/// per-shard k-bound guarantee (Lemma 1 within each shard's snapshot)
/// carries over to the stitched whole unchanged. Like Snapshot, the object
/// is immutable after construction: any number of threads may Release from
/// it with no synchronization.
class StitchedSnapshot {
 public:
  /// Derives the info from the parts: part i's epoch and records fill
  /// shard_epochs[i] and shard_records[i] (0 for a null part), and epoch
  /// and records are their sums. At least one part must be non-null; it
  /// supplies base_k.
  StitchedSnapshot(std::vector<std::shared_ptr<const Snapshot>> parts,
                   Domain domain);

  StitchedSnapshot(const StitchedSnapshot&) = delete;
  StitchedSnapshot& operator=(const StitchedSnapshot&) = delete;

  const StitchedInfo& info() const { return info_; }
  const Domain& domain() const { return domain_; }
  /// Per-shard snapshots, indexed by shard; null until that shard has
  /// published (fewer than base_k records routed to it so far).
  const std::vector<std::shared_ptr<const Snapshot>>& parts() const {
    return parts_;
  }

  /// The k1-granular anonymization of every covered shard's records:
  /// shard 0's k1-release partitions, then shard 1's, ... With one shard
  /// this is byte-for-byte the shard's own Snapshot::Release — the
  /// differential anchor the shard tests pin down.
  PartitionSet Release(size_t k1) const;

  /// The element-wise sum of the covered shards' exact DP cell vectors
  /// (see Snapshot::dp_cells), with the shared grid height in *height.
  /// Because the DP grid is data-independent, the sum depends only on the
  /// union multiset of the shards' records — not on how the router spread
  /// them — which is what makes a DP release built from it byte-identical
  /// at any shard count. FailedPrecondition when no covered shard carries
  /// DP cells (publisher ran with dp_height 0); Internal on a height
  /// mismatch between shards (a misconfigured fleet).
  StatusOr<DpCells> SummedDpCells(size_t* height) const;

 private:
  std::vector<std::shared_ptr<const Snapshot>> parts_;
  Domain domain_;
  StitchedInfo info_;
};

}  // namespace kanon

#endif  // KANON_SHARD_STITCHED_SNAPSHOT_H_
