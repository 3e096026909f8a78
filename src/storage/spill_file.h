#ifndef KANON_STORAGE_SPILL_FILE_H_
#define KANON_STORAGE_SPILL_FILE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace kanon {

/// A flat, allocation-friendly batch of records (structure-of-arrays).
/// The buffer tree moves records between levels in these batches; the flat
/// `values` array is directly consumable by ChoosePointSplit.
struct RecordBatch {
  size_t dim = 0;
  std::vector<uint64_t> rids;
  std::vector<int32_t> sensitive;
  std::vector<double> values;  // row-major, rids.size() * dim

  explicit RecordBatch(size_t d = 0) : dim(d) {}

  size_t size() const { return rids.size(); }
  bool empty() const { return rids.empty(); }

  std::span<const double> row(size_t i) const {
    return {values.data() + i * dim, dim};
  }

  void Append(uint64_t rid, int32_t sens, std::span<const double> vals) {
    rids.push_back(rid);
    sensitive.push_back(sens);
    values.insert(values.end(), vals.begin(), vals.end());
  }

  void Reserve(size_t n) {
    rids.reserve(n);
    sensitive.reserve(n);
    values.reserve(n * dim);
  }

  void Clear() {
    rids.clear();
    sensitive.clear();
    values.clear();
  }
};

/// An unbounded append-only run of records stored as a chain of record pages
/// in a BufferPool: the "external buffer" attached to buffer-tree internal
/// nodes.
///
/// Only the tail page is pinned during appends; a full scan touches every
/// page in the chain exactly once (streaming, one pin at a time).
class PageChain {
 public:
  PageChain(BufferPool* pool, const RecordCodec* codec)
      : pool_(pool), codec_(codec) {}

  /// Releases every page on destruction: a chain abandoned while it still
  /// holds records (say, a buffer tree torn down on an error path) returns
  /// its pages to the pager instead of leaking them for the life of the
  /// backing file.
  ~PageChain() { Clear(); }

  PageChain(PageChain&& other) noexcept
      : pool_(other.pool_),
        codec_(other.codec_),
        pages_(std::move(other.pages_)),
        record_count_(other.record_count_) {
    other.pages_.clear();
    other.record_count_ = 0;
  }
  PageChain& operator=(PageChain&& other) noexcept {
    if (this != &other) {
      Clear();
      pool_ = other.pool_;
      codec_ = other.codec_;
      pages_ = std::move(other.pages_);
      record_count_ = other.record_count_;
      other.pages_.clear();
      other.record_count_ = 0;
    }
    return *this;
  }
  PageChain(const PageChain&) = delete;
  PageChain& operator=(const PageChain&) = delete;

  size_t record_count() const { return record_count_; }
  size_t page_count() const { return pages_.size(); }
  bool empty() const { return record_count_ == 0; }

  /// Appends one record, growing the chain by a page when the tail fills.
  Status Append(uint64_t rid, int32_t sensitive,
                std::span<const double> values);

  /// Appends a whole batch, pinning each tail page once instead of once per
  /// record — the bulk-load fast path.
  Status AppendBatch(const RecordBatch& batch);

  /// Invokes `fn` for every record in append order.
  Status Scan(const std::function<void(uint64_t rid, int32_t sensitive,
                                       std::span<const double> values)>& fn)
      const;

  /// Moves every record into `out` (no per-record allocation) and clears
  /// this chain, releasing its pages. `out` must have the codec's
  /// dimensionality and is appended to.
  Status DrainTo(RecordBatch* out);

  /// Releases every page back to the pager.
  void Clear();

 private:
  BufferPool* pool_;
  const RecordCodec* codec_;
  std::vector<PageId> pages_;
  size_t record_count_ = 0;
};

}  // namespace kanon

#endif  // KANON_STORAGE_SPILL_FILE_H_
