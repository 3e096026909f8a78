#include "index/leaf_block.h"

#include <algorithm>
#include <limits>
#include <new>

#include "common/check.h"

namespace kanon {

LeafBlock::LeafBlock(size_t dim, size_t capacity)
    : dim_(static_cast<uint32_t>(dim)),
      capacity_(static_cast<uint32_t>(capacity)) {
  KANON_CHECK(dim >= 1 && dim <= std::numeric_limits<uint32_t>::max());
  KANON_CHECK(capacity <= std::numeric_limits<uint32_t>::max());
}

size_t LeafBlock::TrailingBytes(size_t dim, size_t capacity) {
  return (4 * dim + capacity * dim) * sizeof(double) +
         capacity * (sizeof(uint64_t) + sizeof(int32_t));
}

BlockRef<LeafBlock> LeafBlock::Make(BoxView region, size_t capacity) {
  const size_t dim = region.dim();
  void* memory =
      ::operator new(sizeof(LeafBlock) + TrailingBytes(dim, capacity));
  BlockRef<LeafBlock> block(new (memory) LeafBlock(dim, capacity));
  double* b = block->bounds();
  std::copy(region.lo.begin(), region.lo.end(), b);
  std::copy(region.hi.begin(), region.hi.end(), b + dim);
  std::fill(b + 2 * dim, b + 3 * dim, std::numeric_limits<double>::infinity());
  std::fill(b + 3 * dim, b + 4 * dim, -std::numeric_limits<double>::infinity());
  return block;
}

BlockRef<LeafBlock> LeafBlock::Clone(size_t capacity) const {
  KANON_CHECK(capacity >= size_);
  auto copy = Make(region(), capacity);
  std::copy_n(bounds() + 2 * dim_, 2 * dim_, copy->bounds() + 2 * dim_);
  std::copy_n(points_data(), size_ * dim_, copy->points_data());
  std::copy_n(rids_data(), size_, copy->rids_data());
  std::copy_n(sensitive_data(), size_, copy->sensitive_data());
  copy->size_ = size_;
  return copy;
}

void LeafBlock::Release() const {
  if (refs_.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  LeafBlock* self = const_cast<LeafBlock*>(this);
  self->~LeafBlock();
  ::operator delete(self);
}

void LeafBlock::Append(std::span<const double> point, uint64_t rid,
                       int32_t sensitive) {
  KANON_DCHECK(!frozen_ && size_ < capacity_);
  KANON_DCHECK(point.size() == dim_);
  std::copy(point.begin(), point.end(), points_data() + size_ * dim_);
  rids_data()[size_] = rid;
  sensitive_data()[size_] = sensitive;
  ++size_;
  double* lo = bounds() + 2 * dim_;
  double* hi = bounds() + 3 * dim_;
  for (size_t d = 0; d < dim_; ++d) {
    lo[d] = std::min(lo[d], point[d]);
    hi[d] = std::max(hi[d], point[d]);
  }
}

}  // namespace kanon
