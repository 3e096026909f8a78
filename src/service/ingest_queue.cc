#include "service/ingest_queue.h"

#include <algorithm>

#include "common/check.h"

namespace kanon {

IngestQueue::IngestQueue(size_t dim, size_t capacity, BackpressureMode mode)
    : dim_(dim),
      capacity_(capacity),
      mode_(mode),
      points_(capacity * dim),
      sensitives_(capacity) {
  KANON_CHECK(dim >= 1 && capacity >= 1);
}

size_t IngestQueue::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

bool IngestQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

uint64_t IngestQueue::total_enqueued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_enqueued_;
}

uint64_t IngestQueue::total_rejected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_rejected_;
}

Status IngestQueue::Enqueue(std::span<const double> point,
                            int32_t sensitive) {
  KANON_DCHECK(point.size() == dim_);
  std::unique_lock<std::mutex> lock(mu_);
  if (mode_ == BackpressureMode::kBlock) {
    while (!closed_ && count_ == capacity_) {
      ++push_waiters_;
      not_full_.wait(lock);
      --push_waiters_;
    }
  }
  if (closed_) return Status::FailedPrecondition("ingest queue closed");
  if (count_ == capacity_) {
    ++total_rejected_;
    return Status::ResourceExhausted("ingest queue full");
  }
  const size_t slot = (head_ + count_) % capacity_;
  std::copy(point.begin(), point.end(), points_.begin() + slot * dim_);
  sensitives_[slot] = sensitive;
  ++count_;
  ++total_enqueued_;
  const bool wake_consumer = pop_waiters_ > 0;
  lock.unlock();
  if (wake_consumer) not_empty_.notify_one();
  return Status::OK();
}

size_t IngestQueue::DrainBatch(IngestBatch* out, size_t max_batch,
                               const std::function<bool()>& wake) {
  out->dim = dim_;
  std::unique_lock<std::mutex> lock(mu_);
  while (!closed_ && count_ == 0 && !(wake != nullptr && wake())) {
    ++pop_waiters_;
    not_empty_.wait(lock);
    --pop_waiters_;
  }
  const size_t n = std::min(max_batch, count_);
  // At most two contiguous runs (the ring may wrap once).
  for (size_t copied = 0; copied < n;) {
    const size_t start = (head_ + copied) % capacity_;
    const size_t run = std::min(n - copied, capacity_ - start);
    out->points.insert(out->points.end(), points_.begin() + start * dim_,
                       points_.begin() + (start + run) * dim_);
    out->sensitives.insert(out->sensitives.end(),
                           sensitives_.begin() + start,
                           sensitives_.begin() + start + run);
    copied += run;
  }
  head_ = (head_ + n) % capacity_;
  count_ -= n;
  const bool wake_producers = n > 0 && push_waiters_ > 0;
  lock.unlock();
  if (wake_producers) not_full_.notify_all();
  return n;
}

void IngestQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

void IngestQueue::Notify() {
  // Pass through mu_ first. The consumer holds it from its `wake` check
  // until it sleeps, so a notify sent in that window without the lock is
  // lost, and PublishNow would wait for a record that may never come.
  { std::lock_guard<std::mutex> lock(mu_); }
  not_empty_.notify_all();
}

}  // namespace kanon
