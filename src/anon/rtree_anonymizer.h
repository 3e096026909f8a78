#ifndef KANON_ANON_RTREE_ANONYMIZER_H_
#define KANON_ANON_RTREE_ANONYMIZER_H_

#include <memory>

#include "anon/constraints.h"
#include "anon/leaf_scan.h"
#include "anon/partition.h"
#include "data/dataset.h"
#include "index/buffer_tree.h"
#include "index/bulk_load.h"
#include "index/rplus_tree.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"

namespace kanon {

/// The shape of an R⁺-tree anonymization index: what the incremental
/// anonymizer, the serving layer and a follower's manifest-built tree take.
struct RTreeIndexOptions {
  /// Base anonymity of the index (minimum leaf occupancy). Requested k
  /// values >= base_k are served from the same index via leaf scan, which is
  /// why the paper's Fig 7(a) shows k-independent anonymization times.
  size_t base_k = 5;
  /// Max leaf = leaf_capacity_factor * base_k (the paper's c). The default
  /// of 2 (B-tree-style 50% minimum occupancy) keeps equivalence classes
  /// close to k, which the discernibility penalty rewards.
  size_t leaf_capacity_factor = 2;
  size_t max_fanout = 16;
  SplitConfig split;
  /// Optional publication constraint (l-diversity, (α,k), ...). Applied to
  /// index leaf splits and to the leaf scan. Not owned; must outlive the
  /// anonymizer.
  const PartitionConstraint* constraint = nullptr;
};

/// Options of the bulk anonymizer: the index shape plus how its output is
/// emitted and which backend builds it.
struct RTreeAnonymizerOptions : RTreeIndexOptions {
  /// Emit compacted (MBR) boxes. When false, partitions carry their index
  /// *regions* clipped to the data domain — the uncompacted view, kept for
  /// the compaction ablation.
  bool compact = true;

  // Bulk-loading backend knobs.
  enum class Backend {
    kBufferTree,    // paged buffer-tree load (default; larger-than-memory)
    kTupleLoading,  // record-at-a-time inserts into the in-memory tree
  };
  Backend backend = Backend::kBufferTree;
  /// Memory budget for the buffer pool of the buffer-tree backend.
  size_t memory_budget_bytes = 64ull << 20;
  /// Back the buffer-tree backend with a real temp file instead of heap
  /// pages.
  bool use_disk = false;
};

/// Bulk anonymizer: builds the spatial index at base_k, then emits a
/// k1-anonymization (k1 >= base_k) via the leaf-scan algorithm.
class RTreeAnonymizer {
 public:
  explicit RTreeAnonymizer(RTreeAnonymizerOptions options = {});

  /// Anonymizes the dataset at granularity k (>= options.base_k; smaller k
  /// is clamped up to base_k).
  StatusOr<PartitionSet> Anonymize(const Dataset& dataset, size_t k) const;

  /// Builds the index once and returns its ordered leaf groups, letting the
  /// caller run leaf scans at several granularities (how the k-sweep
  /// benchmarks amortize the build). Also reports pager I/O and buffer-pool
  /// cache stats (both zero for the in-memory tuple-loading backend).
  struct BuildResult {
    std::vector<LeafGroup> leaves;
    PagerStats io;
    BufferPoolStats cache;
    int tree_height = 0;
  };
  StatusOr<BuildResult> BuildLeaves(const Dataset& dataset) const;

  /// Leaf scan + box emission at granularity k over prebuilt leaves.
  PartitionSet Granularize(const Dataset& dataset,
                           std::span<const LeafGroup> leaves, size_t k) const;

  const RTreeAnonymizerOptions& options() const { return options_; }

 private:
  RTreeAnonymizerOptions options_;
};

/// Incremental anonymizer (paper Section 2.2): maintains an in-memory
/// R⁺-tree under record-at-a-time inserts; any granularity k >= base_k can
/// be published at any time via Snapshot, without touching the records
/// already indexed — unlike top-down algorithms, which must re-anonymize
/// the whole table per batch. Records are never removed, so every leaf
/// but a lone root holds at least base_k records at all times.
class IncrementalAnonymizer {
 public:
  /// `domain_hint` (when known, e.g. from schema metadata) normalizes split
  /// decisions across attributes of different scales; without it, raw
  /// extents are compared.
  IncrementalAnonymizer(size_t dim, RTreeIndexOptions options = {},
                        const Domain* domain_hint = nullptr);

  void Insert(std::span<const double> point, RecordId rid,
              int32_t sensitive);

  /// Inserts every record of `dataset` whose id is in [begin, end).
  void InsertBatch(const Dataset& dataset, RecordId begin, RecordId end);

  size_t size() const { return tree_.size(); }
  const RPlusTree& tree() const { return tree_; }
  const RTreeIndexOptions& options() const { return options_; }

  /// Replaces the (empty) tree with one restored from persistent storage —
  /// the crash-recovery entry point (src/durability/recovery.h). The
  /// adopted tree must share this anonymizer's dimensionality and
  /// structural configuration; note the restored tree keeps its original
  /// leaf_admissible predicate semantics only if this anonymizer was
  /// constructed with the same constraint.
  void AdoptTree(RPlusTree tree);

  /// Publishes the current records as a k-anonymization (k >= base_k), as
  /// compacted boxes (leaf MBRs).
  PartitionSet Snapshot(const Dataset& dataset, size_t k) const;

  /// Rebuilds the index top-down from its records. The first inserts fix
  /// the tree's region cuts from a tiny sample that later data outgrows;
  /// a repack recuts them from the whole record set, at bulk-load cost.
  void Repack();

 private:
  RTreeIndexOptions options_;
  RPlusTree tree_;
};

}  // namespace kanon

#endif  // KANON_ANON_RTREE_ANONYMIZER_H_
