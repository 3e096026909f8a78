#include "index/buffer_tree.h"

#include <algorithm>
#include <functional>

#include "common/check.h"

namespace kanon {

BufferTree::BufferTree(size_t dim, RTreeConfig config, size_t buffer_pages,
                       BufferPool* pool)
    : dim_(dim),
      config_(std::move(config)),
      buffer_pages_(buffer_pages),
      pool_(pool),
      codec_(dim) {
  KANON_CHECK(config_.min_leaf >= 1);
  KANON_CHECK(config_.max_leaf + 1 >= 2 * config_.min_leaf);
  KANON_CHECK(config_.max_fanout >= 2);
  KANON_CHECK(buffer_pages_ >= 1);
  root_ = std::make_unique<BufferNode>(dim_, /*leaf=*/true);
  root_->region = Region::Whole(dim_);
  root_->records = std::make_unique<PageChain>(pool_, &codec_);
}

size_t BufferTree::BufferThresholdRecords() const {
  const size_t per_page =
      (pool_->page_size() - RecordPageView::kHeaderSize) /
      codec_.record_size();
  return std::max<size_t>(1, buffer_pages_ * per_page);
}

Status BufferTree::Insert(std::span<const double> point, uint64_t rid,
                          int32_t sensitive) {
  KANON_DCHECK(point.size() == dim_);
  KANON_CHECK_MSG(!flushed_, "Insert after Flush");
  if (root_->is_leaf) {
    KANON_RETURN_IF_ERROR(root_->records->Append(rid, sensitive, point));
    root_->mbr.ExpandToInclude(point);
    ++root_->record_count;
    if (root_->record_count > config_.max_leaf) {
      std::vector<std::unique_ptr<BufferNode>> pieces;
      BufferNode* old_root = root_.get();
      KANON_RETURN_IF_ERROR(SplitLeafRecursive(old_root, &pieces));
      // Even a single piece replaces the old leaf: SplitLeafRecursive
      // drained the old node's records into the pieces. A leaf root
      // shattered into many pieces can overflow the fresh root at once.
      return SplitOverfull(
          SpliceChild(&root_, old_root, std::move(pieces),
                      std::bind_front(&BufferTree::MakeInternal, this)));
    }
    return Status::OK();
  }
  KANON_RETURN_IF_ERROR(root_->buffer->Append(rid, sensitive, point));
  if (root_->buffer->record_count() >= BufferThresholdRecords()) {
    KANON_RETURN_IF_ERROR(Clear(root_.get(), /*recurse=*/true));
  }
  return Status::OK();
}

Status BufferTree::AppendBatchToLeaf(BufferNode* leaf,
                                     const RecordBatch& batch) {
  KANON_RETURN_IF_ERROR(leaf->records->AppendBatch(batch));
  for (size_t i = 0; i < batch.size(); ++i) {
    leaf->mbr.ExpandToInclude(batch.row(i));
  }
  leaf->record_count += batch.size();
  // Ancestor MBRs only need to absorb the (tight) leaf MBR; counts grow by
  // the batch size.
  for (BufferNode* n = leaf->parent; n != nullptr; n = n->parent) {
    n->mbr.ExpandToInclude(leaf->mbr);
    n->record_count += batch.size();
  }
  return Status::OK();
}

Status BufferTree::Clear(BufferNode* node, bool recurse) {
  KANON_DCHECK(!node->is_leaf);
  RecordBatch batch(dim_);
  KANON_RETURN_IF_ERROR(node->buffer->DrainTo(&batch));
  if (batch.empty()) return Status::OK();

  // Route every record to its child by region, staging per-child flat
  // batches so each child's pages are pinned once per page, not per record.
  const size_t num_children = node->children.size();
  std::vector<RecordBatch> staged(num_children, RecordBatch(dim_));
  for (size_t i = 0; i < batch.size(); ++i) {
    const auto row = batch.row(i);
    size_t dst = num_children;
    for (size_t c = 0; c < num_children; ++c) {
      if (node->children[c]->region.ContainsPoint(row)) {
        dst = c;
        break;
      }
    }
    KANON_CHECK_MSG(dst < num_children, "buffer-tree routing hole");
    staged[dst].Append(batch.rids[i], batch.sensitive[i], row);
  }
  batch.Clear();

  const bool leaf_children = node->children.front()->is_leaf;
  if (leaf_children) {
    for (size_t c = 0; c < num_children; ++c) {
      if (staged[c].empty()) continue;
      KANON_RETURN_IF_ERROR(
          AppendBatchToLeaf(node->children[c].get(), staged[c]));
    }
    // Split any leaves the batch overfilled. The child list mutates during
    // replacement, so scan by index and skip past the inserted pieces.
    for (size_t i = 0; i < node->children.size(); ++i) {
      BufferNode* child = node->children[i].get();
      if (child->record_count > config_.max_leaf) {
        std::vector<std::unique_ptr<BufferNode>> pieces;
        KANON_RETURN_IF_ERROR(SplitLeafRecursive(child, &pieces));
        i += pieces.size() - 1;
        SpliceChild(&root_, child, std::move(pieces),
                    std::bind_front(&BufferTree::MakeInternal, this));
      }
    }
    KANON_RETURN_IF_ERROR(SplitOverfull(node));
  } else {
    for (size_t c = 0; c < num_children; ++c) {
      if (staged[c].empty()) continue;
      KANON_RETURN_IF_ERROR(
          node->children[c]->buffer->AppendBatch(staged[c]));
    }
    if (recurse) {
      // Cascading clears: children whose buffers overflowed are cleared in
      // turn (paper Section 2.1). Child pointers are stable even if a
      // clear restructures this node's ancestry.
      std::vector<BufferNode*> full;
      const size_t threshold = BufferThresholdRecords();
      for (auto& c : node->children) {
        if (c->buffer->record_count() >= threshold) full.push_back(c.get());
      }
      for (BufferNode* c : full) {
        KANON_RETURN_IF_ERROR(Clear(c, true));
      }
    }
  }
  return Status::OK();
}

Status BufferTree::SplitLeafRecursive(
    BufferNode* leaf, std::vector<std::unique_ptr<BufferNode>>* out) {
  RecordBatch records(dim_);
  KANON_RETURN_IF_ERROR(leaf->records->DrainTo(&records));

  // Recursively cut the record set until every piece fits in a leaf.
  std::function<Status(RecordBatch&&, Region)> build =
      [&](RecordBatch&& recs, Region region) -> Status {
    std::optional<PointSplit> split;
    if (recs.size() > config_.max_leaf) {
      split = ChooseLeafSplit(recs.values.data(), recs.sensitive.data(),
                              recs.size(), dim_, config_.min_leaf,
                              config_.split, &region,
                              config_.leaf_admissible);
    }
    if (!split) {
      auto piece = std::make_unique<BufferNode>(dim_, /*leaf=*/true);
      piece->region = std::move(region);
      piece->records = std::make_unique<PageChain>(pool_, &codec_);
      KANON_RETURN_IF_ERROR(piece->records->AppendBatch(recs));
      for (size_t i = 0; i < recs.size(); ++i) {
        piece->mbr.ExpandToInclude(recs.row(i));
      }
      piece->record_count = recs.size();
      out->push_back(std::move(piece));
      return Status::OK();
    }
    auto [left_region, right_region] = region.Cut(split->axis, split->value);
    RecordBatch left(dim_), right(dim_);
    left.Reserve(split->left_count);
    right.Reserve(split->right_count);
    for (size_t i = 0; i < recs.size(); ++i) {
      RecordBatch& dst =
          recs.values[i * dim_ + split->axis] < split->value ? left : right;
      dst.Append(recs.rids[i], recs.sensitive[i], recs.row(i));
    }
    recs.Clear();
    KANON_RETURN_IF_ERROR(build(std::move(left), std::move(left_region)));
    return build(std::move(right), std::move(right_region));
  };
  return build(std::move(records), leaf->region);
}

std::unique_ptr<BufferNode> BufferTree::MakeInternal(Region region) const {
  auto node = std::make_unique<BufferNode>(dim_, /*leaf=*/false);
  node->region = std::move(region);
  node->buffer = std::make_unique<PageChain>(pool_, &codec_);
  return node;
}

Status BufferTree::SplitOverfull(BufferNode* node) {
  return ResolveOverflow(
      &root_, node, config_.max_fanout, config_.split,
      std::bind_front(&BufferTree::MakeInternal, this),
      [this](BufferNode* split, BufferNode* left,
             BufferNode* right) -> Status {
        // Re-route any records still buffered at the split node.
        RecordBatch buffered(dim_);
        KANON_RETURN_IF_ERROR(split->buffer->DrainTo(&buffered));
        if (buffered.empty()) return Status::OK();
        RecordBatch left_stage(dim_), right_stage(dim_);
        for (size_t i = 0; i < buffered.size(); ++i) {
          const auto row = buffered.row(i);
          RecordBatch& dst =
              left->region.ContainsPoint(row) ? left_stage : right_stage;
          dst.Append(buffered.rids[i], buffered.sensitive[i], row);
        }
        KANON_RETURN_IF_ERROR(left->buffer->AppendBatch(left_stage));
        return right->buffer->AppendBatch(right_stage);
      });
}

Status BufferTree::Flush() {
  KANON_CHECK_MSG(!flushed_, "Flush called twice");
  flushed_ = true;
  if (root_->is_leaf) return Status::OK();
  // Clear buffers level by level, top-down. Splits during a clear only add
  // nodes whose buffers are empty (the split drains them), so one pass per
  // depth suffices; a root split shifts depth numbering by one, which only
  // causes an already-emptied level to be re-scanned (a no-op).
  for (int depth = 0;; ++depth) {
    std::vector<BufferNode*> level;
    std::function<void(BufferNode*, int)> collect = [&](BufferNode* n,
                                                        int d) {
      if (n->is_leaf) return;
      if (d == depth) {
        level.push_back(n);
        return;
      }
      for (auto& c : n->children) collect(c.get(), d + 1);
    };
    collect(root_.get(), 0);
    if (level.empty()) break;
    for (BufferNode* n : level) {
      if (n->buffer->record_count() > 0) {
        KANON_RETURN_IF_ERROR(Clear(n, /*recurse=*/false));
      }
    }
  }
  return Status::OK();
}

Status BufferTree::ScanLeaf(
    const BufferNode* leaf,
    const std::function<void(uint64_t, int32_t, std::span<const double>)>& fn)
    const {
  KANON_CHECK(leaf->is_leaf);
  return leaf->records->Scan(fn);
}

Status BufferTree::CheckNode(const BufferNode* node) const {
  if (node->is_leaf) {
    if (node->records->record_count() != node->record_count) {
      return Status::Corruption("leaf chain count mismatch");
    }
    if (node->parent != nullptr && node->record_count < config_.min_leaf) {
      return Status::Corruption("underfull buffer-tree leaf");
    }
    Status scan_status = Status::OK();
    const Status s = node->records->Scan(
        [&](uint64_t, int32_t, std::span<const double> p) {
          if (!node->region.ContainsPoint(p) || !node->mbr.ContainsPoint(p)) {
            scan_status = Status::Corruption("record escapes leaf bounds");
          }
        });
    KANON_RETURN_IF_ERROR(s);
    return scan_status;
  }
  if (flushed_ && node->buffer->record_count() != 0) {
    return Status::Corruption("non-empty buffer after flush");
  }
  KANON_RETURN_IF_ERROR(CheckChildren(*node));
  for (const auto& c : node->children) {
    KANON_RETURN_IF_ERROR(CheckNode(c.get()));
  }
  return Status::OK();
}

Status BufferTree::CheckInvariants() const { return CheckNode(root_.get()); }

}  // namespace kanon
