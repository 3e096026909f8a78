#ifndef KANON_INDEX_RPLUS_TREE_H_
#define KANON_INDEX_RPLUS_TREE_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "index/node.h"
#include "index/split.h"

namespace kanon {

/// Structural parameters of the tree. The leaf occupancy window [min_leaf,
/// max_leaf] is the paper's "leaf nodes contain between k and ck records":
/// min_leaf is the base anonymity parameter k, max_leaf = c*k.
struct RTreeConfig {
  size_t min_leaf = 5;
  size_t max_leaf = 15;    // must satisfy max_leaf + 1 >= 2 * min_leaf
  size_t max_fanout = 16;  // internal node capacity
  SplitConfig split;
  /// Optional publication predicate over the sensitive codes of a candidate
  /// leaf. When set, a leaf split is applied only if *both* halves satisfy
  /// it — this is how l-diversity or (α,k)-style requirements plug into the
  /// index splitting routine (paper Section 6). An inadmissible split
  /// leaves the leaf overfull, which never weakens the guarantee.
  LeafPredicate leaf_admissible;
};

/// A non-overlapping R-tree variant (R⁺-tree style) over points, used as a
/// k-anonymization engine:
///
///  * every node owns a half-open region; sibling regions are disjoint and
///    tile the parent's region, so insertions route deterministically and
///    leaf partitions never overlap — the property the k-anonymization
///    literature universally assumes;
///  * every node maintains the MBR of its records, which is the *compacted*
///    generalized quasi-identifier value (Section 4 of the paper);
///  * every leaf except a lone root holds at least min_leaf records, and
///    at most max_leaf unless it cannot be split without a side dropping
///    below min_leaf (duplicate-heavy data) — an overfull leaf preserves
///    k-anonymity trivially.
///
/// The tree is insert-only: a record, once indexed, stays, so the
/// occupancy floor holds after every operation. Record-at-a-time Insert is
/// the paper's incremental anonymization mechanism; for bulk loads see
/// BufferTree (index/buffer_tree.h).
class RPlusTree {
 public:
  RPlusTree(size_t dim, RTreeConfig config);

  /// Adopts a fully built node structure (used by tree persistence, see
  /// index/tree_persistence.h). The structure is trusted; callers that
  /// load from untrusted storage should run CheckInvariants afterwards.
  static RPlusTree FromRoot(size_t dim, RTreeConfig config,
                            std::unique_ptr<Node> root);

  RPlusTree(const RPlusTree&) = delete;
  RPlusTree& operator=(const RPlusTree&) = delete;
  RPlusTree(RPlusTree&&) = default;
  RPlusTree& operator=(RPlusTree&&) = default;

  size_t dim() const { return dim_; }
  const RTreeConfig& config() const { return config_; }

  /// Inserts one record. `point` must have dim() coordinates.
  void Insert(std::span<const double> point, uint64_t rid, int32_t sensitive);

  size_t size() const { return root_->record_count; }
  int height() const { return Height(*root_); }
  const Node* root() const { return root_.get(); }

  /// Leaves in left-to-right tree order (see kanon::OrderedLeaves).
  std::vector<const Node*> OrderedLeaves() const {
    return kanon::OrderedLeaves(*root_);
  }

  /// Calls `fn(leaf)` for every leaf in OrderedLeaves order, without
  /// materializing the list.
  template <typename Fn>
  void ForEachLeaf(const Fn& fn) const {
    kanon::ForEachLeaf(*root_, fn);
  }

  /// All nodes at depth `d` (root = depth 0), in left-to-right order. Used
  /// by the hierarchical multi-granular release algorithm.
  std::vector<const Node*> NodesAtDepth(int d) const {
    return kanon::NodesAtDepth(*root_, d);
  }

  /// Collects record ids of points inside the closed box `query`, pruning
  /// subtrees by MBR. Returns the number of leaves whose MBR intersected
  /// the query (the |W| of Section 2.3).
  size_t SearchRange(const Mbr& query, std::vector<uint64_t>* out) const;

  /// Verifies every structural invariant (region tiling, MBR containment,
  /// occupancy, counts, parent links).
  Status CheckInvariants() const;

  struct TreeStats {
    size_t num_leaves = 0;
    size_t num_internal = 0;
    size_t min_leaf_size = 0;
    size_t max_leaf_size = 0;
    int height = 0;
  };
  TreeStats ComputeStats() const;

 private:
  Node* ChooseLeaf(std::span<const double> point);
  void SplitLeaf(Node* leaf);
  std::unique_ptr<Node> MakeInternal(Region region) const;
  Status CheckNode(const Node* node) const;

  size_t dim_;
  RTreeConfig config_;
  std::unique_ptr<Node> root_;
};

}  // namespace kanon

#endif  // KANON_INDEX_RPLUS_TREE_H_
