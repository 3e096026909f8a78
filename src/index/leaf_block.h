#ifndef KANON_INDEX_LEAF_BLOCK_H_
#define KANON_INDEX_LEAF_BLOCK_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>

#include "index/mbr.h"

namespace kanon {

class LeafBlock;

/// Shared ownership of a LeafBlock: `BlockRef<LeafBlock>` for the tree's
/// writer, `BlockRef<const LeafBlock>` for published snapshots. The
/// reference count lives in the block's header, so the count, the header
/// and the record columns are one allocation whose layout LeafBlock owns.
template <typename T>
class BlockRef {
 public:
  BlockRef() = default;
  BlockRef(const BlockRef& other) : p_(other.p_) { Acquire(); }
  template <typename U>
    requires std::is_convertible_v<U*, T*>
  BlockRef(const BlockRef<U>& other) : p_(other.get()) {
    Acquire();
  }
  BlockRef(BlockRef&& other) noexcept : p_(std::exchange(other.p_, nullptr)) {}
  BlockRef& operator=(BlockRef other) noexcept {
    std::swap(p_, other.p_);
    return *this;
  }
  ~BlockRef() {
    if (p_ != nullptr) p_->Release();
  }

  T* get() const { return p_; }
  T& operator*() const { return *p_; }
  T* operator->() const { return p_; }

 private:
  friend class LeafBlock;
  /// Takes over the one reference a new block starts with.
  explicit BlockRef(T* adopted) : p_(adopted) {}
  void Acquire() const {
    if (p_ != nullptr) p_->Acquire();
  }

  T* p_ = nullptr;
};

/// One R⁺-tree leaf's records and bounds in a single allocation: the
/// leaf's half-open region, the tight MBR of its records, and the record
/// columns (row-major points, rids, sensitive codes), all inline behind a
/// small header that also holds the reference count.
///
/// A block is the unit of sharing between the tree's writer and published
/// snapshots. While no snapshot holds it, the writer appends to it in
/// place. A snapshot build calls Freeze(); from then on the block never
/// changes, so any number of reader threads may scan it while the writer
/// goes on. The writer replaces a frozen block by a Clone before its next
/// append (RPlusTree::Insert), and a split builds two fresh blocks. So a
/// publication copies no record: it takes the block pointers.
///
/// The frozen mark is written and read by the writer thread only. Readers
/// never look at it, and the sharing decision never reads another
/// thread's reference count.
class alignas(double) LeafBlock {
 public:
  /// An empty, writable block for `region.dim()`-dimensional records with
  /// room for `capacity` of them.
  static BlockRef<LeafBlock> Make(BoxView region, size_t capacity);

  /// A writable copy of this block (records, region and MBR) with room for
  /// `capacity` >= size() records.
  BlockRef<LeafBlock> Clone(size_t capacity) const;

  /// The capacity the writer gives a block that must hold `n` records and
  /// may grow: room for one more plus ~25% headroom, so a leaf is regrown
  /// a few times while it fills and wastes ~10% on average.
  static size_t GrowCapacity(size_t n) { return n + 1 + n / 4; }

  LeafBlock(const LeafBlock&) = delete;
  LeafBlock& operator=(const LeafBlock&) = delete;

  size_t dim() const { return dim_; }
  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  bool full() const { return size_ == capacity_; }

  std::span<const uint64_t> rids() const { return {rids_data(), size_}; }
  std::span<const int32_t> sensitive() const {
    return {sensitive_data(), size_};
  }
  /// Row-major coordinates, size() * dim() values.
  std::span<const double> points() const {
    return {points_data(), size_ * dim_};
  }
  std::span<const double> point(size_t i) const {
    return {points_data() + i * dim_, dim_};
  }

  /// The leaf's half-open cell of the space partition.
  BoxView region() const {
    return {{bounds(), dim_}, {bounds() + dim_, dim_}};
  }
  /// The tight MBR of the records; inverted (empty) while size() is 0.
  BoxView mbr() const {
    return {{bounds() + 2 * dim_, dim_}, {bounds() + 3 * dim_, dim_}};
  }

  /// Appends a record and grows the MBR. The block must be writable
  /// (not frozen) and not full.
  void Append(std::span<const double> point, uint64_t rid, int32_t sensitive);

  /// Asks the CPU to fetch, one 64-byte line at a time, what a release
  /// scan reads of this block: the header, the bounds and the rids.
  void Prefetch() const {
    const char* p = reinterpret_cast<const char*>(this);
    const char* end = reinterpret_cast<const char*>(rids_data() + size_);
    for (; p < end; p += 64) __builtin_prefetch(p);
  }

  /// Whether a snapshot may hold this block (writer thread only).
  bool frozen() const { return frozen_; }
  /// Marks the block as taken by a snapshot. Writer thread only; const
  /// because the records do not change, only who may change them.
  void Freeze() const { frozen_ = true; }

 private:
  template <typename T>
  friend class BlockRef;

  LeafBlock(size_t dim, size_t capacity);

  void Acquire() const { refs_.fetch_add(1, std::memory_order_relaxed); }
  /// Drops one reference; the last one frees the allocation.
  void Release() const;

  // Trailing storage, in the allocation right after the header (Make
  // asks operator new for both at once), in order: region lo/hi and MBR
  // lo/hi (4 * dim doubles), rids (capacity), points (capacity * dim
  // doubles), sensitive codes (capacity). A release scan reads the bounds
  // and the rids, so they sit together at the front.
  static size_t TrailingBytes(size_t dim, size_t capacity);
  double* bounds() {
    return reinterpret_cast<double*>(reinterpret_cast<char*>(this) +
                                     sizeof(LeafBlock));
  }
  const double* bounds() const {
    return reinterpret_cast<const double*>(
        reinterpret_cast<const char*>(this) + sizeof(LeafBlock));
  }
  uint64_t* rids_data() {
    return reinterpret_cast<uint64_t*>(bounds() + 4 * dim_);
  }
  const uint64_t* rids_data() const {
    return reinterpret_cast<const uint64_t*>(bounds() + 4 * dim_);
  }
  double* points_data() {
    return reinterpret_cast<double*>(rids_data() + capacity_);
  }
  const double* points_data() const {
    return reinterpret_cast<const double*>(rids_data() + capacity_);
  }
  int32_t* sensitive_data() {
    return reinterpret_cast<int32_t*>(points_data() + capacity_ * dim_);
  }
  const int32_t* sensitive_data() const {
    return reinterpret_cast<const int32_t*>(points_data() +
                                            capacity_ * dim_);
  }

  uint32_t dim_;
  uint32_t size_ = 0;
  uint32_t capacity_;
  mutable std::atomic<uint32_t> refs_{1};
  mutable bool frozen_ = false;
};

static_assert(sizeof(LeafBlock) % alignof(double) == 0,
              "trailing bounds must be double-aligned");

}  // namespace kanon

#endif  // KANON_INDEX_LEAF_BLOCK_H_
