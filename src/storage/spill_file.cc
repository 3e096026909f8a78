#include "storage/spill_file.h"

namespace kanon {

Status PageChain::Append(uint64_t rid, int32_t sensitive,
                         std::span<const double> values) {
  if (pages_.empty()) {
    KANON_ASSIGN_OR_RETURN(PageHandle h, pool_->New());
    RecordPageView view(h.data(), pool_->page_size(), codec_);
    view.Init();
    h.MarkDirty();
    pages_.push_back(h.id());
  }
  {
    KANON_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(pages_.back()));
    RecordPageView view(h.data(), pool_->page_size(), codec_);
    if (!view.full()) {
      view.Append(rid, sensitive, values);
      h.MarkDirty();
      ++record_count_;
      return Status::OK();
    }
  }
  // Tail is full: link a fresh page.
  KANON_ASSIGN_OR_RETURN(PageHandle fresh, pool_->New());
  RecordPageView fresh_view(fresh.data(), pool_->page_size(), codec_);
  fresh_view.Init();
  fresh_view.Append(rid, sensitive, values);
  fresh.MarkDirty();
  {
    KANON_ASSIGN_OR_RETURN(PageHandle tail, pool_->Fetch(pages_.back()));
    RecordPageView tail_view(tail.data(), pool_->page_size(), codec_);
    tail_view.set_next(fresh.id());
    tail.MarkDirty();
  }
  pages_.push_back(fresh.id());
  ++record_count_;
  return Status::OK();
}

Status PageChain::AppendBatch(const RecordBatch& batch) {
  KANON_DCHECK(batch.dim == codec_->dim());
  size_t i = 0;
  const size_t n = batch.size();
  while (i < n) {
    if (pages_.empty()) {
      KANON_ASSIGN_OR_RETURN(PageHandle h, pool_->New());
      RecordPageView view(h.data(), pool_->page_size(), codec_);
      view.Init();
      h.MarkDirty();
      pages_.push_back(h.id());
    }
    bool tail_full = false;
    {
      KANON_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(pages_.back()));
      RecordPageView view(h.data(), pool_->page_size(), codec_);
      while (i < n && !view.full()) {
        view.Append(batch.rids[i], batch.sensitive[i], batch.row(i));
        ++i;
        ++record_count_;
      }
      h.MarkDirty();
      tail_full = view.full();
    }
    if (i < n && tail_full) {
      KANON_ASSIGN_OR_RETURN(PageHandle fresh, pool_->New());
      RecordPageView fresh_view(fresh.data(), pool_->page_size(), codec_);
      fresh_view.Init();
      fresh.MarkDirty();
      {
        KANON_ASSIGN_OR_RETURN(PageHandle tail, pool_->Fetch(pages_.back()));
        RecordPageView tail_view(tail.data(), pool_->page_size(), codec_);
        tail_view.set_next(fresh.id());
        tail.MarkDirty();
      }
      pages_.push_back(fresh.id());
    }
  }
  return Status::OK();
}

Status PageChain::Scan(
    const std::function<void(uint64_t, int32_t, std::span<const double>)>& fn)
    const {
  std::vector<double> values(codec_->dim());
  for (PageId pid : pages_) {
    KANON_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(pid));
    RecordPageView view(h.data(), pool_->page_size(), codec_);
    const uint32_t n = view.count();
    for (uint32_t i = 0; i < n; ++i) {
      uint64_t rid;
      int32_t sensitive;
      view.Read(i, &rid, &sensitive, values.data());
      fn(rid, sensitive, std::span<const double>(values.data(), values.size()));
    }
  }
  return Status::OK();
}

Status PageChain::DrainTo(RecordBatch* out) {
  KANON_DCHECK(out->dim == codec_->dim());
  out->Reserve(out->size() + record_count_);
  std::vector<double> row(codec_->dim());
  for (PageId pid : pages_) {
    KANON_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(pid));
    RecordPageView view(h.data(), pool_->page_size(), codec_);
    const uint32_t n = view.count();
    for (uint32_t i = 0; i < n; ++i) {
      uint64_t rid;
      int32_t sensitive;
      view.Read(i, &rid, &sensitive, row.data());
      out->Append(rid, sensitive,
                  std::span<const double>(row.data(), row.size()));
    }
  }
  Clear();
  return Status::OK();
}

void PageChain::Clear() {
  for (PageId pid : pages_) pool_->Discard(pid);
  pages_.clear();
  record_count_ = 0;
}

}  // namespace kanon
