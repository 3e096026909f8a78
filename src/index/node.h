#ifndef KANON_INDEX_NODE_H_
#define KANON_INDEX_NODE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "index/leaf_block.h"
#include "index/mbr.h"
#include "index/split.h"

namespace kanon {

/// One node of the in-memory R⁺-tree.
///
/// Every node owns a half-open *region* (its cell of the recursive space
/// partition; regions of siblings are disjoint and tile the parent's region)
/// and maintains the *MBR* of the records stored beneath it. The region is
/// what routes insertions deterministically and keeps partitions
/// non-overlapping; the MBR is the compact generalized value the paper's
/// anonymization emits.
///
/// A leaf keeps its records, region and MBR in one LeafBlock, which
/// published snapshots share (index/leaf_block.h); internal nodes own their
/// bounds and children.
struct Node {
  /// A leaf over `block`.
  static std::unique_ptr<Node> Leaf(BlockRef<LeafBlock> block) {
    auto node = std::unique_ptr<Node>(new Node(/*leaf=*/true));
    node->record_count = block->size();
    node->block = std::move(block);
    return node;
  }
  /// An internal node over `region` with no children and an empty MBR.
  static std::unique_ptr<Node> Internal(Region region) {
    auto node = std::unique_ptr<Node>(new Node(/*leaf=*/false));
    const size_t dim = region.dim();
    node->inner_ =
        std::make_unique<Bounds>(Bounds{std::move(region), Mbr(dim)});
    return node;
  }

  bool is_leaf;
  Node* parent = nullptr;

  /// Number of records in the subtree (maintained incrementally; a leaf's
  /// equals its block's size).
  size_t record_count = 0;

  // Leaf payload.
  BlockRef<LeafBlock> block;

  // Internal payload.
  std::vector<std::unique_ptr<Node>> children;

  size_t fanout() const { return children.size(); }
  size_t leaf_size() const { return block->size(); }

  BoxView region() const {
    return is_leaf ? block->region() : inner_->region.view();
  }
  BoxView mbr() const { return is_leaf ? block->mbr() : inner_->mbr.view(); }

  // A leaf's records.
  std::span<const uint64_t> rids() const { return block->rids(); }
  std::span<const int32_t> sensitive() const { return block->sensitive(); }
  std::span<const double> points() const { return block->points(); }
  std::span<const double> point(size_t i) const { return block->point(i); }

  // An internal node's bounds.
  const Region& inner_region() const { return inner_->region; }
  Mbr& inner_mbr() { return inner_->mbr; }

  /// Appends a record to a leaf and grows the leaf MBR. A block that a
  /// snapshot froze is first replaced by a writable copy, so a published
  /// snapshot never sees the change. The copy fits exactly: streaming
  /// Lands End records from empty with a publication every 10k, 83% of
  /// these copies take no second record before the next publication (93%
  /// at 1M records), and giving them headroom instead cost 11% more tree
  /// memory for no measurable ingest speed. A full writable block
  /// regrows with headroom.
  void AppendRecord(std::span<const double> p, uint64_t rid, int32_t sens) {
    if (block->frozen()) {
      block = block->Clone(block->size() + 1);
    } else if (block->full()) {
      block = block->Clone(LeafBlock::GrowCapacity(block->size()));
    }
    block->Append(p, rid, sens);
    ++record_count;
  }

 private:
  struct Bounds {
    Region region;
    Mbr mbr;
  };

  explicit Node(bool leaf) : is_leaf(leaf) {}

  std::unique_ptr<Bounds> inner_;  // internal nodes only
};

// Bounds access for the shared structural rules below; BufferNode
// (index/buffer_tree.h) provides the same four functions.
inline BoxView RegionOf(const Node& n) { return n.region(); }
inline BoxView MbrOf(const Node& n) { return n.mbr(); }
inline const Region& InnerRegion(const Node& n) { return n.inner_region(); }
inline Mbr& InnerMbr(Node& n) { return n.inner_mbr(); }

// ---------------------------------------------------------------------------
// Structural rules of the R⁺-tree, shared by RPlusTree (Node), BufferTree
// (BufferNode) and the sorted loader. They read the fields both node types
// have (is_leaf, parent, record_count and children) and reach bounds
// through RegionOf/MbrOf (any node) and InnerRegion/InnerMbr (internal).
// ---------------------------------------------------------------------------

/// Levels from `root` down to the leaves (a leaf root has height 1).
template <typename N>
int Height(const N& root) {
  int h = 1;
  for (const N* n = &root; !n->is_leaf; n = n->children.front().get()) ++h;
  return h;
}

/// Calls `fn(leaf)` for every leaf below `n`, in left-to-right tree order.
template <typename N, typename Fn>
void ForEachLeaf(const N& n, const Fn& fn) {
  if (n.is_leaf) {
    fn(&n);
    return;
  }
  for (const auto& c : n.children) ForEachLeaf(*c, fn);
}

/// Leaves in left-to-right tree order — the "sequential ordering of nodes
/// on the same tree level" the leaf-scan algorithm (Fig 5) relies on.
template <typename N>
std::vector<const N*> OrderedLeaves(const N& root) {
  std::vector<const N*> leaves;
  ForEachLeaf(root, [&leaves](const N* leaf) { leaves.push_back(leaf); });
  return leaves;
}

/// All nodes at depth `d` below `n` (which sits at `depth`), left to right.
/// Leaves shallower than `d` stand in for their (absent) descendants so
/// every record appears in the level view exactly once.
template <typename N>
void CollectNodesAtDepth(const N& n, int depth, int d,
                         std::vector<const N*>* out) {
  if (depth == d || n.is_leaf) {
    out->push_back(&n);
    return;
  }
  for (const auto& c : n.children) {
    CollectNodesAtDepth(*c, depth + 1, d, out);
  }
}

template <typename N>
std::vector<const N*> NodesAtDepth(const N& root, int d) {
  std::vector<const N*> out;
  CollectNodesAtDepth(root, 0, d, &out);
  return out;
}

/// Index of `node` within node.parent->children. Node must have a parent.
template <typename N>
size_t IndexInParent(const N& node) {
  KANON_CHECK(node.parent != nullptr);
  const auto& siblings = node.parent->children;
  for (size_t i = 0; i < siblings.size(); ++i) {
    if (siblings[i].get() == &node) return i;
  }
  KANON_CHECK_MSG(false, "node not found in its parent");
  return 0;
}

/// Appends `child` to internal node `parent`, linking it and folding its
/// MBR and record count into the parent's.
template <typename N>
void AdoptChild(N* parent, std::unique_ptr<N> child) {
  child->parent = parent;
  InnerMbr(*parent).ExpandToInclude(MbrOf(*child));
  parent->record_count += child->record_count;
  parent->children.push_back(std::move(child));
}

/// Puts `pieces`, in order, where `old_child` stood, which destroys it.
/// When `old_child` is the root, a single piece becomes the new root and
/// several grow a new root, made by `make_internal(region)`, above them.
/// Returns the node whose fanout grew (nullptr if none) — resolving its
/// overflow is the caller's job (ResolveOverflow).
template <typename N, typename MakeInternal>
N* SpliceChild(std::unique_ptr<N>* root, N* old_child,
               std::vector<std::unique_ptr<N>> pieces,
               const MakeInternal& make_internal) {
  KANON_CHECK(!pieces.empty());
  N* parent = old_child->parent;
  if (parent == nullptr) {
    KANON_CHECK(old_child == root->get());
    if (pieces.size() == 1) {
      pieces[0]->parent = nullptr;
      *root = std::move(pieces[0]);
      return nullptr;
    }
    std::unique_ptr<N> new_root =
        make_internal(Region::Whole(RegionOf(*old_child).dim()));
    for (auto& piece : pieces) AdoptChild(new_root.get(), std::move(piece));
    *root = std::move(new_root);
    return root->get();
  }
  const size_t idx = IndexInParent(*old_child);
  for (auto& piece : pieces) piece->parent = parent;
  parent->children[idx] = std::move(pieces[0]);
  parent->children.insert(parent->children.begin() + idx + 1,
                          std::make_move_iterator(pieces.begin() + 1),
                          std::make_move_iterator(pieces.end()));
  return parent;
}

/// Splits `node`, then each ancestor, while it holds more than `max_fanout`
/// children. A split cuts along the plane ChooseRegionSeparator picks,
/// moves the children into two halves made by `make_internal(region)`,
/// lets `on_split(node, left, right)` move whatever else the node holds,
/// and splices the halves into the node's place.
template <typename N, typename MakeInternal, typename OnSplit>
Status ResolveOverflow(std::unique_ptr<N>* root, N* node, size_t max_fanout,
                       const SplitConfig& config,
                       const MakeInternal& make_internal,
                       const OnSplit& on_split) {
  while (node != nullptr && node->children.size() > max_fanout) {
    std::vector<BoxView> regions;
    regions.reserve(node->children.size());
    for (const auto& c : node->children) regions.push_back(RegionOf(*c));
    const auto split = ChooseRegionSeparator(regions, config);
    KANON_CHECK_MSG(split.has_value(),
                    "no separating plane found for internal node");

    auto [left_region, right_region] =
        InnerRegion(*node).Cut(split->axis, split->value);
    std::vector<std::unique_ptr<N>> halves;
    halves.push_back(make_internal(std::move(left_region)));
    halves.push_back(make_internal(std::move(right_region)));
    for (auto& child : node->children) {
      const size_t side =
          RegionOf(*child).hi[split->axis] <= split->value ? 0 : 1;
      AdoptChild(halves[side].get(), std::move(child));
    }
    node->children.clear();
    KANON_DCHECK(!halves[0]->children.empty() &&
                 !halves[1]->children.empty());
    KANON_RETURN_IF_ERROR(on_split(node, halves[0].get(), halves[1].get()));
    N* parent = node->parent;
    SpliceChild(root, node, std::move(halves), make_internal);  // frees node
    node = parent;
  }
  return Status::OK();
}

/// The checks every internal node passes: it has children, each links
/// back to it, lies inside its region and is disjoint from its siblings,
/// and their record counts add up to its own.
template <typename N>
Status CheckChildren(const N& node) {
  if (node.children.empty()) {
    return Status::Corruption("internal node with no children");
  }
  const BoxView region = RegionOf(node);
  const size_t dim = region.dim();
  size_t count = 0;
  for (const auto& c : node.children) {
    if (c->parent != &node) return Status::Corruption("broken parent link");
    const BoxView child = RegionOf(*c);
    for (size_t d = 0; d < dim; ++d) {
      if (child.lo[d] < region.lo[d] || child.hi[d] > region.hi[d]) {
        return Status::Corruption("child region escapes parent region");
      }
    }
    count += c->record_count;
  }
  // Sibling regions must be pairwise interior-disjoint.
  for (size_t i = 0; i < node.children.size(); ++i) {
    for (size_t j = i + 1; j < node.children.size(); ++j) {
      const BoxView a = RegionOf(*node.children[i]);
      const BoxView b = RegionOf(*node.children[j]);
      bool disjoint = false;
      for (size_t d = 0; d < dim; ++d) {
        if (a.hi[d] <= b.lo[d] || b.hi[d] <= a.lo[d]) {
          disjoint = true;
          break;
        }
      }
      if (!disjoint) return Status::Corruption("overlapping sibling regions");
    }
  }
  if (count != node.record_count) {
    return Status::Corruption("internal record_count mismatch");
  }
  return Status::OK();
}

}  // namespace kanon

#endif  // KANON_INDEX_NODE_H_
