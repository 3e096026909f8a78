#ifndef KANON_INDEX_NODE_H_
#define KANON_INDEX_NODE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/status.h"
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
/// Leaves store their records inline (row-major coordinates plus record id
/// and sensitive code); internal nodes own their children.
struct Node {
  Node(size_t dim, bool leaf) : is_leaf(leaf), mbr(dim), dim_(dim) {}

  bool is_leaf;
  Region region;
  Mbr mbr;
  Node* parent = nullptr;

  // Leaf payload.
  std::vector<uint64_t> rids;
  std::vector<int32_t> sensitive;
  std::vector<double> points;  // row-major, rids.size() * dim

  // Internal payload.
  std::vector<std::unique_ptr<Node>> children;

  /// Number of records in the subtree (maintained incrementally).
  size_t record_count = 0;

  size_t dim() const { return dim_; }
  size_t fanout() const { return children.size(); }
  size_t leaf_size() const { return rids.size(); }

  std::span<const double> point(size_t i) const {
    return {points.data() + i * dim_, dim_};
  }

  /// Appends a record to a leaf and grows the leaf MBR.
  void AppendRecord(std::span<const double> p, uint64_t rid, int32_t sens) {
    rids.push_back(rid);
    sensitive.push_back(sens);
    points.insert(points.end(), p.begin(), p.end());
    mbr.ExpandToInclude(p);
    ++record_count;
  }

 private:
  size_t dim_;
};

// ---------------------------------------------------------------------------
// Structural rules of the R⁺-tree, shared by RPlusTree (Node), BufferTree
// (BufferNode) and the sorted loader. They read only the fields both node
// types have: is_leaf, region, mbr, parent, record_count and children.
// ---------------------------------------------------------------------------

/// Levels from `root` down to the leaves (a leaf root has height 1).
template <typename N>
int Height(const N& root) {
  int h = 1;
  for (const N* n = &root; !n->is_leaf; n = n->children.front().get()) ++h;
  return h;
}

/// Leaves in left-to-right tree order — the "sequential ordering of nodes
/// on the same tree level" the leaf-scan algorithm (Fig 5) relies on.
template <typename N>
std::vector<const N*> OrderedLeaves(const N& root) {
  std::vector<const N*> leaves;
  std::vector<const N*> stack = {&root};
  while (!stack.empty()) {
    const N* n = stack.back();
    stack.pop_back();
    if (n->is_leaf) {
      leaves.push_back(n);
      continue;
    }
    for (auto it = n->children.rbegin(); it != n->children.rend(); ++it) {
      stack.push_back(it->get());
    }
  }
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
  parent->mbr.ExpandToInclude(child->mbr);
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
        make_internal(Region::Whole(old_child->region.dim()));
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
    std::vector<const Region*> regions;
    regions.reserve(node->children.size());
    for (const auto& c : node->children) regions.push_back(&c->region);
    const auto split = ChooseRegionSeparator(
        std::span<const Region* const>(regions.data(), regions.size()),
        config);
    KANON_CHECK_MSG(split.has_value(),
                    "no separating plane found for internal node");

    auto [left_region, right_region] =
        node->region.Cut(split->axis, split->value);
    std::vector<std::unique_ptr<N>> halves;
    halves.push_back(make_internal(std::move(left_region)));
    halves.push_back(make_internal(std::move(right_region)));
    for (auto& child : node->children) {
      const size_t side = child->region.hi[split->axis] <= split->value ? 0 : 1;
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
  const size_t dim = node.region.dim();
  size_t count = 0;
  for (const auto& c : node.children) {
    if (c->parent != &node) return Status::Corruption("broken parent link");
    for (size_t d = 0; d < dim; ++d) {
      if (c->region.lo[d] < node.region.lo[d] ||
          c->region.hi[d] > node.region.hi[d]) {
        return Status::Corruption("child region escapes parent region");
      }
    }
    count += c->record_count;
  }
  // Sibling regions must be pairwise interior-disjoint.
  for (size_t i = 0; i < node.children.size(); ++i) {
    for (size_t j = i + 1; j < node.children.size(); ++j) {
      const Region& a = node.children[i]->region;
      const Region& b = node.children[j]->region;
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
