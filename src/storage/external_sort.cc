#include "storage/external_sort.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <queue>

#include "common/check.h"

namespace kanon {

namespace {

/// The sort key travels in values[0] of a (dim+1)-wide record, as the
/// bit-pattern of the uint64 key. memcpy round-trips exactly; the value is
/// never used as a number.
double KeyToDouble(uint64_t key) {
  double d;
  std::memcpy(&d, &key, sizeof(d));
  return d;
}

uint64_t DoubleToKey(double d) {
  uint64_t key;
  std::memcpy(&key, &d, sizeof(key));
  return key;
}

/// Records staged into an intermediate-merge sink between AppendBatch
/// flushes.
constexpr size_t kSinkChunkRecords = 4096;

/// Sorts `batch` by (key, rid), the one order runs and merges share.
RecordBatch SortByKeyRid(const RecordBatch& batch) {
  const size_t width = batch.dim;
  std::vector<uint32_t> order(batch.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    const uint64_t ka = DoubleToKey(batch.values[a * width]);
    const uint64_t kb = DoubleToKey(batch.values[b * width]);
    if (ka != kb) return ka < kb;
    return batch.rids[a] < batch.rids[b];
  });
  RecordBatch sorted(width);
  sorted.Reserve(batch.size());
  for (uint32_t i : order) {
    sorted.Append(batch.rids[i], batch.sensitive[i], batch.row(i));
  }
  return sorted;
}

}  // namespace

ExternalSorter::ExternalSorter(size_t dim, size_t run_records,
                               BufferPool* pool)
    : dim_(dim),
      run_records_(std::max<size_t>(2, run_records)),
      pool_(pool),
      codec_(dim + 1),
      staging_(dim + 1) {
  staging_.Reserve(run_records_);
}

Status ExternalSorter::Add(uint64_t key, uint64_t rid, int32_t sensitive,
                           std::span<const double> values) {
  KANON_CHECK_MSG(!finished_, "Add after Finish");
  KANON_DCHECK(values.size() == dim_);
  staging_.rids.push_back(rid);
  staging_.sensitive.push_back(sensitive);
  staging_.values.push_back(KeyToDouble(key));
  staging_.values.insert(staging_.values.end(), values.begin(),
                         values.end());
  ++record_count_;
  if (staging_.size() >= run_records_) KANON_RETURN_IF_ERROR(SpillRun());
  return Status::OK();
}

Status ExternalSorter::SpillRun() {
  if (staging_.empty()) return Status::OK();
  auto run = std::make_unique<PageChain>(pool_, &codec_);
  KANON_RETURN_IF_ERROR(run->AppendBatch(SortByKeyRid(staging_)));
  runs_.push_back(std::move(run));
  staging_.Clear();
  return Status::OK();
}

Status ExternalSorter::Finish(
    const std::function<void(uint64_t, uint64_t, int32_t,
                             std::span<const double>)>& emit) {
  KANON_CHECK_MSG(!finished_, "Finish called twice");
  finished_ = true;
  KANON_RETURN_IF_ERROR(SpillRun());

  // The merge fan-in is limited by the pool (one pinned page per cursor,
  // plus headroom for the output run). Merge in passes until one pass can
  // cover all remaining runs. A pool of 6 frames or fewer merges
  // pairwise (two cursors and the output tail page).
  const size_t capacity = pool_->capacity();
  const size_t max_fanin = capacity > 6 ? capacity - 4 : 2;
  while (runs_.size() > max_fanin) {
    KANON_RETURN_IF_ERROR(MergePass(max_fanin));
  }
  return MergeRuns(0, runs_.size(), emit, nullptr, nullptr);
}

Status ExternalSorter::MergePass(size_t fanin) {
  // One group at a time, releasing each group's inputs as soon as it is
  // merged.
  std::vector<std::unique_ptr<PageChain>> next;
  for (size_t begin = 0; begin < runs_.size(); begin += fanin) {
    const size_t end = std::min(begin + fanin, runs_.size());
    auto merged = std::make_unique<PageChain>(pool_, &codec_);
    RecordBatch chunk(dim_ + 1);
    KANON_RETURN_IF_ERROR(
        MergeRuns(begin, end, /*emit=*/nullptr, &chunk, merged.get()));
    for (size_t r = begin; r < end; ++r) runs_[r]->Clear();
    next.push_back(std::move(merged));
  }
  runs_ = std::move(next);
  return Status::OK();
}

Status ExternalSorter::MergeRuns(size_t begin, size_t end, const EmitFn& emit,
                                 RecordBatch* chunk, PageChain* sink) {
  struct HeapEntry {
    uint64_t key;
    uint64_t rid;
    size_t run;
  };
  const auto cmp = [](const HeapEntry& a, const HeapEntry& b) {
    if (a.key != b.key) return a.key > b.key;  // min-heap on (key, rid)
    return a.rid > b.rid;
  };
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, decltype(cmp)> heap(
      cmp);
  std::vector<std::unique_ptr<PageChainCursor>> cursors;
  cursors.reserve(end - begin);
  for (size_t r = begin; r < end; ++r) {
    cursors.push_back(std::make_unique<PageChainCursor>(runs_[r].get()));
    PageChainCursor& cursor = *cursors.back();
    // A cursor that failed to position (unreadable first page) is
    // indistinguishable from an exhausted run by valid() alone — the
    // retained status is what keeps the merge honest.
    if (!cursor.status().ok()) return cursor.status();
    if (cursor.valid()) {
      heap.push({DoubleToKey(cursor.values()[0]), cursor.rid(),
                 cursors.size() - 1});
    }
  }
  while (!heap.empty()) {
    const HeapEntry top = heap.top();
    heap.pop();
    PageChainCursor& cursor = *cursors[top.run];
    const auto full = cursor.values();
    if (sink != nullptr) {
      chunk->Append(cursor.rid(), cursor.sensitive(), full);
    } else {
      emit(top.key, cursor.rid(), cursor.sensitive(),
           full.subspan(1));  // strip the key slot for the caller
    }
    KANON_RETURN_IF_ERROR(cursor.Next());
    if (cursor.valid()) {
      heap.push({DoubleToKey(cursor.values()[0]), cursor.rid(), top.run});
    }
    if (sink != nullptr && chunk->size() >= kSinkChunkRecords) {
      KANON_RETURN_IF_ERROR(sink->AppendBatch(*chunk));
      chunk->Clear();
    }
  }
  if (sink != nullptr && !chunk->empty()) {
    KANON_RETURN_IF_ERROR(sink->AppendBatch(*chunk));
    chunk->Clear();
  }
  return Status::OK();
}

}  // namespace kanon
