#ifndef KANON_INDEX_BUFFER_TREE_H_
#define KANON_INDEX_BUFFER_TREE_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "index/rplus_tree.h"
#include "index/split.h"
#include "storage/buffer_pool.h"
#include "storage/spill_file.h"

namespace kanon {

/// A node of the buffer tree. Structure mirrors the in-memory R⁺-tree node
/// (region + MBR + children), but record payloads live in paged storage:
/// leaves keep their records in a PageChain, and every internal node owns an
/// "external buffer" PageChain in which arriving insertions are blocked
/// until the buffer fills (van den Bercken/Seeger/Widmayer bulk loading, as
/// adopted by the paper's Section 2.1).
struct BufferNode {
  BufferNode(size_t dim, bool leaf) : is_leaf(leaf), mbr(dim) {}

  bool is_leaf;
  Region region;
  Mbr mbr;
  BufferNode* parent = nullptr;
  size_t record_count = 0;  // records stored in the subtree's *leaves*

  std::unique_ptr<PageChain> records;  // leaf payload
  std::vector<std::unique_ptr<BufferNode>> children;
  std::unique_ptr<PageChain> buffer;   // internal-node external buffer
};

// Bounds access for the shared structural rules (index/node.h).
inline BoxView RegionOf(const BufferNode& n) { return n.region.view(); }
inline BoxView MbrOf(const BufferNode& n) { return n.mbr.view(); }
inline const Region& InnerRegion(const BufferNode& n) { return n.region; }
inline Mbr& InnerMbr(BufferNode& n) { return n.mbr; }

/// Bulk-loads a non-overlapping R⁺-tree with bounded memory: insertions
/// accumulate in node buffers and move down the tree a batch at a time, so
/// the I/O cost is O(N/B log_{M/B} N/B) — external-sort-like — instead of
/// one root-to-leaf traversal per record. All page traffic flows through the
/// provided BufferPool, whose capacity is the experiment's memory budget and
/// whose Pager counts the explicit I/Os reported in the paper's Fig 8(b).
///
/// The structure follows the same RTreeConfig as RPlusTree — occupancy
/// window, fanout, split policy and leaf_admissible — and the same
/// structural rules (index/node.h). `buffer_pages` is the number of pages
/// an internal-node buffer holds before it is cleared and its records are
/// pushed one level down.
///
/// Usage: Insert(...) for every record, then Flush() exactly once, then read
/// the structure (OrderedLeaves / ScanLeaf / NodesAtDepth).
class BufferTree {
 public:
  BufferTree(size_t dim, RTreeConfig config, size_t buffer_pages,
             BufferPool* pool);

  BufferTree(const BufferTree&) = delete;
  BufferTree& operator=(const BufferTree&) = delete;

  size_t dim() const { return dim_; }
  size_t size() const { return root_->record_count; }

  /// Buffered insertion of one record.
  Status Insert(std::span<const double> point, uint64_t rid,
                int32_t sensitive);

  /// Pushes every buffered record down to its leaf, splitting as it goes.
  /// Internal MBRs grow with every batch that reaches a leaf, so they are
  /// tight once the buffers are empty. Must be called once, after the last
  /// Insert and before reading the tree.
  Status Flush();

  const BufferNode* root() const { return root_.get(); }
  int height() const { return Height(*root_); }

  /// Leaves in left-to-right order (see kanon::OrderedLeaves).
  std::vector<const BufferNode*> OrderedLeaves() const {
    return kanon::OrderedLeaves(*root_);
  }

  /// Nodes at depth d, leaves standing in below their depth.
  std::vector<const BufferNode*> NodesAtDepth(int d) const {
    return kanon::NodesAtDepth(*root_, d);
  }

  /// Streams a leaf's records.
  Status ScanLeaf(const BufferNode* leaf,
                  const std::function<void(uint64_t rid, int32_t sensitive,
                                           std::span<const double> values)>&
                      fn) const;

  /// Structural invariants (region tiling, occupancy, counts). Leaves must
  /// have been flushed.
  Status CheckInvariants() const;

 private:
  size_t BufferThresholdRecords() const;
  Status AppendBatchToLeaf(BufferNode* leaf, const RecordBatch& batch);
  /// Distributes the node's buffer one level down; splits overfull leaves
  /// and overflowing nodes; with `recurse` also clears children whose
  /// buffers filled up (the paper's cascading clears).
  Status Clear(BufferNode* node, bool recurse);
  Status SplitLeafRecursive(BufferNode* leaf,
                            std::vector<std::unique_ptr<BufferNode>>* out);
  /// An internal node with an empty buffer chain.
  std::unique_ptr<BufferNode> MakeInternal(Region region) const;
  /// kanon::ResolveOverflow with this tree's hooks: halves get their own
  /// buffers, and the split node's buffered records move into them.
  Status SplitOverfull(BufferNode* node);
  Status CheckNode(const BufferNode* node) const;

  size_t dim_;
  RTreeConfig config_;
  size_t buffer_pages_;
  BufferPool* pool_;
  RecordCodec codec_;
  std::unique_ptr<BufferNode> root_;
  bool flushed_ = false;
};

}  // namespace kanon

#endif  // KANON_INDEX_BUFFER_TREE_H_
