#include "index/rplus_tree.h"

#include <algorithm>
#include <functional>

#include "common/check.h"

namespace kanon {

RPlusTree::RPlusTree(size_t dim, RTreeConfig config)
    : dim_(dim), config_(config) {
  KANON_CHECK_MSG(config_.min_leaf >= 1, "min_leaf must be positive");
  KANON_CHECK_MSG(config_.max_leaf + 1 >= 2 * config_.min_leaf,
                  "max_leaf too small to split into two >= min_leaf halves");
  KANON_CHECK_MSG(config_.max_fanout >= 2, "fanout must be at least 2");
  root_ = Node::Leaf(LeafBlock::Make(
      Region::Whole(dim_).view(), LeafBlock::GrowCapacity(config_.max_leaf)));
}

RPlusTree RPlusTree::FromRoot(size_t dim, RTreeConfig config,
                              std::unique_ptr<Node> root) {
  RPlusTree tree(dim, std::move(config));
  KANON_CHECK(root != nullptr && root->parent == nullptr);
  tree.root_ = std::move(root);
  return tree;
}

Node* RPlusTree::ChooseLeaf(std::span<const double> point) {
  Node* node = root_.get();
  while (!node->is_leaf) {
    Node* next = nullptr;
    for (auto& child : node->children) {
      if (child->region().ContainsHalfOpen(point)) {
        next = child.get();
        break;
      }
    }
    KANON_CHECK_MSG(next != nullptr,
                    "region tiling violated: point routed into a hole");
    node = next;
  }
  return node;
}

void RPlusTree::Insert(std::span<const double> point, uint64_t rid,
                       int32_t sensitive) {
  KANON_DCHECK(point.size() == dim_);
  Node* leaf = ChooseLeaf(point);
  leaf->AppendRecord(point, rid, sensitive);
  // Maintain subtree MBRs and counts along the ancestor path.
  for (Node* n = leaf->parent; n != nullptr; n = n->parent) {
    n->inner_mbr().ExpandToInclude(point);
    ++n->record_count;
  }
  if (leaf->leaf_size() > config_.max_leaf) SplitLeaf(leaf);
}

void RPlusTree::SplitLeaf(Node* leaf) {
  const LeafBlock& block = *leaf->block;
  const Region region = Region::FromView(block.region());
  const auto split = ChooseLeafSplit(
      block.points().data(), block.sensitive().data(), block.size(), dim_,
      config_.min_leaf, config_.split, &region, config_.leaf_admissible);
  // No cut: duplicate-dominated, or a side would violate the publication
  // constraint. The leaf stays overfull.
  if (!split) return;

  // Two fresh exact-fit blocks: the old one may be frozen in a snapshot.
  const auto [left_region, right_region] =
      region.Cut(split->axis, split->value);
  std::vector<std::unique_ptr<Node>> halves;
  halves.push_back(Node::Leaf(
      LeafBlock::Make(left_region.view(), split->left_count)));
  halves.push_back(Node::Leaf(
      LeafBlock::Make(right_region.view(), split->right_count)));
  for (size_t i = 0; i < block.size(); ++i) {
    const size_t side = block.point(i)[split->axis] < split->value ? 0 : 1;
    halves[side]->AppendRecord(block.point(i), block.rids()[i],
                               block.sensitive()[i]);
  }
  KANON_DCHECK(halves[0]->leaf_size() >= config_.min_leaf);
  KANON_DCHECK(halves[1]->leaf_size() >= config_.min_leaf);
  const auto make_internal = std::bind_front(&RPlusTree::MakeInternal, this);
  Node* grown = SpliceChild(&root_, leaf, std::move(halves), make_internal);
  // In-memory nodes hold nothing beyond their children, so no split can
  // fail here.
  const Status resolved = ResolveOverflow(
      &root_, grown, config_.max_fanout, config_.split, make_internal,
      [](Node*, Node*, Node*) { return Status::OK(); });
  KANON_DCHECK(resolved.ok());
}

std::unique_ptr<Node> RPlusTree::MakeInternal(Region region) const {
  return Node::Internal(std::move(region));
}

size_t RPlusTree::SearchRange(const Mbr& query,
                              std::vector<uint64_t>* out) const {
  size_t leaves_visited = 0;
  std::vector<const Node*> stack = {root_.get()};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    if (!query.Intersects(n->mbr())) continue;
    if (n->is_leaf) {
      ++leaves_visited;
      if (out != nullptr) {
        for (size_t i = 0; i < n->leaf_size(); ++i) {
          if (query.ContainsPoint(n->point(i))) out->push_back(n->rids()[i]);
        }
      }
      continue;
    }
    for (const auto& c : n->children) stack.push_back(c.get());
  }
  return leaves_visited;
}

Status RPlusTree::CheckNode(const Node* node) const {
  // MBR within region (MBRs are closed; regions half-open — containment is
  // lo <= mbr.lo and mbr.hi <= region.hi, strict at finite hi boundaries
  // except for degenerate tolerance).
  const BoxView mbr = node->mbr();
  const BoxView region = node->region();
  if (!mbr.empty()) {
    for (size_t d = 0; d < dim_; ++d) {
      if (mbr.lo[d] < region.lo[d] || mbr.hi[d] > region.hi[d]) {
        return Status::Corruption("node MBR escapes its region");
      }
    }
  }
  if (node->is_leaf) {
    if (node->record_count != node->leaf_size()) {
      return Status::Corruption("leaf record_count mismatch");
    }
    const bool is_root = node->parent == nullptr;
    if (!is_root && node->leaf_size() < config_.min_leaf) {
      return Status::Corruption("underfull leaf");
    }
    for (size_t i = 0; i < node->leaf_size(); ++i) {
      if (!region.ContainsHalfOpen(node->point(i))) {
        return Status::Corruption("leaf point outside leaf region");
      }
      if (!mbr.ContainsClosed(node->point(i))) {
        return Status::Corruption("leaf point outside leaf MBR");
      }
    }
    return Status::OK();
  }
  KANON_RETURN_IF_ERROR(CheckChildren(*node));
  Mbr expect(dim_);
  for (const auto& c : node->children) expect.ExpandToInclude(c->mbr());
  if (!(expect == Mbr::FromView(mbr))) {
    return Status::Corruption("internal MBR is not the union of children");
  }
  for (const auto& c : node->children) {
    KANON_RETURN_IF_ERROR(CheckNode(c.get()));
  }
  return Status::OK();
}

Status RPlusTree::CheckInvariants() const { return CheckNode(root_.get()); }

RPlusTree::TreeStats RPlusTree::ComputeStats() const {
  TreeStats stats;
  stats.height = height();
  stats.min_leaf_size = static_cast<size_t>(-1);
  std::vector<const Node*> stack = {root_.get()};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    if (n->is_leaf) {
      ++stats.num_leaves;
      stats.min_leaf_size = std::min(stats.min_leaf_size, n->leaf_size());
      stats.max_leaf_size = std::max(stats.max_leaf_size, n->leaf_size());
    } else {
      ++stats.num_internal;
      for (const auto& c : n->children) stack.push_back(c.get());
    }
  }
  if (stats.num_leaves == 0) stats.min_leaf_size = 0;
  return stats;
}

}  // namespace kanon
