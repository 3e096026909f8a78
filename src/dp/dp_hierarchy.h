#ifndef KANON_DP_DP_HIERARCHY_H_
#define KANON_DP_DP_HIERARCHY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "index/mbr.h"

namespace kanon {

/// The canonical bisection hierarchy over a quasi-identifier domain: a
/// complete binary tree of `height` levels of axis-cycling midpoint cuts
/// (depth d splits axis d % dim at the exact midpoint), heap-indexed with
/// node 1 as the root and children 2v / 2v+1.
///
/// The grid is deliberately *data-independent* — a pure function of
/// (domain, height), never of the records or of the R⁺-tree's own split
/// history. That is what makes DP releases comparable and summable across
/// deployments: every shard of a sharded service, and a replication
/// follower of its leader, bins records into the *same* cells, so
/// per-shard exact cell counts simply add and the noisy hierarchy built
/// from the sum is byte-identical no matter how the records were routed.
/// (The R⁺-tree's own node boxes differ per shard and per insertion order,
/// which is exactly why they cannot anchor a cross-shard-deterministic
/// release.)
class DpGrid {
 public:
  /// `height` >= 0; the grid has 2^height leaf cells. Domain extents may
  /// be degenerate (a zero-width axis just makes that cut a no-op
  /// boundary at lo).
  DpGrid(Domain domain, size_t height);

  size_t height() const { return height_; }
  size_t dim() const { return domain_.dim(); }
  const Domain& domain() const { return domain_; }

  size_t num_leaves() const { return size_t{1} << height_; }
  /// Heap-array size: valid node ids are [1, num_nodes()), id 0 unused.
  size_t num_nodes() const { return size_t{2} << height_; }

  /// Level of a heap node id: 0 = root, height() = leaf.
  static size_t NodeLevel(size_t node);

  /// The leaf cell index in [0, num_leaves()) containing `point`.
  /// Coordinates outside the domain clamp to the boundary cell, so every
  /// record lands in exactly one cell. Allocates nothing.
  size_t LeafCell(std::span<const double> point) const;

  /// Writes the closed box of heap node `node` in [1, num_nodes()) into
  /// `*box`, reusing its storage once it has dim() axes.
  void NodeBox(size_t node, Mbr* box) const;

  /// The contiguous leaf-cell range [first, last) beneath `node`.
  void LeafRange(size_t node, size_t* first, size_t* last) const;

 private:
  Domain domain_;
  size_t height_;
};

/// Bins `n` row-major points of dimension `grid.dim()` into exact per-cell
/// counts (the input of the noising pass). Pure accumulation: callers add
/// the result of several calls to cover several record sources.
void AccumulateCells(const DpGrid& grid, const double* points, size_t n,
                     std::vector<uint64_t>* cells);

}  // namespace kanon

#endif  // KANON_DP_DP_HIERARCHY_H_
