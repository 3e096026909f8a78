#ifndef KANON_STORAGE_EXTERNAL_SORT_H_
#define KANON_STORAGE_EXTERNAL_SORT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/spill_file.h"

namespace kanon {

/// Bounded-memory external merge sort over records, used by the
/// space-filling-curve bulk loader when the data exceeds memory (the
/// classical alternative to the buffer tree; both achieve
/// O(N/B log_{M/B} N/B) I/Os and this substrate makes the comparison
/// measurable through the same pager counters).
///
/// The caller streams records in with Add(); each record carries a 64-bit
/// sort key (e.g. a truncated Hilbert key). When the in-memory staging
/// batch reaches `run_records`, it is sorted and spilled as a run (a
/// PageChain). Finish() merges the runs and emits records in (key, rid)
/// order. The sorter is single-threaded, like the BufferPool it spills
/// through.
class ExternalSorter {
 public:
  /// `run_records` is the memory budget expressed in records (the M of the
  /// I/O model).
  ExternalSorter(size_t dim, size_t run_records, BufferPool* pool);

  /// An interrupted sort (destroyed before Finish) releases its spilled
  /// runs back to the pager — see ~PageChain.
  ~ExternalSorter() = default;

  ExternalSorter(const ExternalSorter&) = delete;
  ExternalSorter& operator=(const ExternalSorter&) = delete;

  size_t record_count() const { return record_count_; }
  /// Runs spilled so far.
  size_t run_count() const { return runs_.size(); }

  /// Adds one record with its sort key. Keys sort as uint64; ties break
  /// on `rid`.
  Status Add(uint64_t key, uint64_t rid, int32_t sensitive,
             std::span<const double> values);

  /// Sorts and merges; calls `emit` once per record, in non-decreasing
  /// (key, rid) order. The sorter is consumed (runs are released). A
  /// failed spill-page read surfaces here as the cursor's Status (e.g.
  /// kCorruption from a checksum mismatch) instead of aborting.
  Status Finish(
      const std::function<void(uint64_t key, uint64_t rid, int32_t sensitive,
                               std::span<const double> values)>& emit);

 private:
  using EmitFn = std::function<void(uint64_t key, uint64_t rid,
                                    int32_t sensitive,
                                    std::span<const double> values)>;

  /// Sorts the staging batch by (key, rid) and appends it as a new run.
  Status SpillRun();

  /// Merges runs [begin, end), emitting records in (key, rid) order; when
  /// `sink` is set the stream is staged into `chunk` and flushed into
  /// `sink` periodically (intermediate passes).
  Status MergeRuns(size_t begin, size_t end, const EmitFn& emit,
                   RecordBatch* chunk, PageChain* sink);

  /// One intermediate pass: merges groups of `fanin` runs and replaces
  /// runs_ with the merged generation.
  Status MergePass(size_t fanin);

  size_t dim_;
  size_t run_records_;
  BufferPool* pool_;
  RecordCodec codec_;  // dim_ + 1 doubles: the key rides in slot 0
  std::vector<std::unique_ptr<PageChain>> runs_;
  // In-memory staging batch; the key is stored as values[0] so a run page
  // is self-contained.
  RecordBatch staging_;
  size_t record_count_ = 0;
  bool finished_ = false;
};

}  // namespace kanon

#endif  // KANON_STORAGE_EXTERNAL_SORT_H_
