#include "dp/dp_hierarchy.h"

#include <bit>
#include <utility>

#include "common/check.h"

namespace kanon {

DpGrid::DpGrid(Domain domain, size_t height)
    : domain_(std::move(domain)), height_(height) {
  KANON_CHECK(domain_.dim() > 0);
  KANON_CHECK(height_ < 40);
}

size_t DpGrid::NodeLevel(size_t node) {
  KANON_DCHECK(node >= 1);
  return std::bit_width(node) - 1;
}

// Both walks below take the axes one at a time. Depth d cuts axis
// d % dim, and a cut of one axis never moves another's bounds, so each
// axis narrows its own [lo, hi) over depths axis, axis + dim, ... with the
// same arithmetic as a depth-ordered walk, and no per-call copy of the
// domain.

size_t DpGrid::LeafCell(std::span<const double> point) const {
  KANON_DCHECK(point.size() == dim());
  size_t cell = 0;
  for (size_t axis = 0; axis < dim(); ++axis) {
    double lo = domain_.lo[axis];
    double hi = domain_.hi[axis];
    for (size_t depth = axis; depth < height_; depth += dim()) {
      const double mid = lo + (hi - lo) / 2.0;
      // Half-open cut [lo, mid) | [mid, hi): a point exactly at the
      // midpoint goes right, and out-of-domain points clamp into the
      // boundary cell. Depth d decides bit height - 1 - d of the cell.
      if (point[axis] < mid) {
        hi = mid;
      } else {
        lo = mid;
        cell |= size_t{1} << (height_ - 1 - depth);
      }
    }
  }
  return cell;
}

void DpGrid::NodeBox(size_t node, Mbr* box) const {
  KANON_DCHECK(node >= 1 && node < num_nodes());
  if (box->dim() != dim()) *box = Mbr(dim());
  const size_t level = NodeLevel(node);
  for (size_t axis = 0; axis < dim(); ++axis) {
    double lo = domain_.lo[axis];
    double hi = domain_.hi[axis];
    for (size_t depth = axis; depth < level; depth += dim()) {
      const double mid = lo + (hi - lo) / 2.0;
      if ((node >> (level - 1 - depth)) & 1) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    box->SetAxis(axis, lo, hi);
  }
}

void DpGrid::LeafRange(size_t node, size_t* first, size_t* last) const {
  const size_t level = NodeLevel(node);
  const size_t below = height_ - level;  // levels between node and leaves
  const size_t index_in_level = node - (size_t{1} << level);
  *first = index_in_level << below;
  *last = (index_in_level + 1) << below;
}

void AccumulateCells(const DpGrid& grid, const double* points, size_t n,
                     std::vector<uint64_t>* cells) {
  if (cells->size() != grid.num_leaves()) {
    cells->assign(grid.num_leaves(), 0);
  }
  const size_t dim = grid.dim();
  for (size_t i = 0; i < n; ++i) {
    ++(*cells)[grid.LeafCell({points + i * dim, dim})];
  }
}

}  // namespace kanon
