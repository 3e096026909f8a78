#ifndef KANON_SHARD_STITCHED_SNAPSHOT_H_
#define KANON_SHARD_STITCHED_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
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
/// carries over to the stitched whole unchanged. Like Snapshot, the release
/// point is immutable after construction: any number of threads may Release
/// from it with no synchronization. The one mutable part is the memo of
/// rendered bodies (RenderOnce), a cache of pure functions of that state.
class StitchedSnapshot {
 public:
  /// How many rendered bodies one snapshot memoizes (see RenderOnce).
  static constexpr size_t kMaxRenderedBodies = 16;

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

  /// Release(k1) without the record ids: every partition's record count
  /// and box, in the same order, with no rid copied.
  std::vector<PartitionBox> ReleaseBoxes(size_t k1) const;

  /// The body memoized under (k1, summary), rendered by `render` on first
  /// use. A body is a pure function of this snapshot and its key, so it is
  /// rendered once per snapshot and dies with it: no invalidation. `render`
  /// runs outside any lock; when threads race on one key, the first insert
  /// wins and every caller returns its bytes. At most kMaxRenderedBodies
  /// keys are kept; past the cap each call renders and keeps nothing.
  std::string RenderOnce(size_t k1, bool summary,
                         const std::function<std::string()>& render) const;

  /// How many bodies RenderOnce holds (at most kMaxRenderedBodies).
  size_t rendered_bodies() const;

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

  using RenderKey = std::pair<size_t, bool>;  // (k1, summary)
  mutable std::mutex rendered_mu_;
  mutable std::vector<std::pair<RenderKey, std::shared_ptr<const std::string>>>
      rendered_;  // guarded by rendered_mu_
};

}  // namespace kanon

#endif  // KANON_SHARD_STITCHED_SNAPSHOT_H_
