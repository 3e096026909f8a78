#ifndef KANON_SERVICE_INGEST_QUEUE_H_
#define KANON_SERVICE_INGEST_QUEUE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "common/status.h"

namespace kanon {

/// A batch of drained records in structure-of-arrays layout: record i is
/// points[i*dim .. (i+1)*dim) paired with sensitives[i]. Record ids are
/// assigned later, by the single writer, when the records are appended to
/// the service's live index — producers never coordinate on ids. Reusing
/// one IngestBatch across DrainBatch calls keeps the steady-state ingest
/// path allocation-free.
struct IngestBatch {
  size_t dim = 0;
  std::vector<double> points;
  std::vector<int32_t> sensitives;

  size_t size() const { return sensitives.size(); }
  std::span<const double> point(size_t i) const {
    return {points.data() + i * dim, dim};
  }
  void Clear() {
    points.clear();
    sensitives.clear();
  }
};

/// What a producer experiences when the ingest queue is at capacity.
enum class BackpressureMode {
  kBlock,   // Enqueue blocks until space frees up
  kReject,  // Enqueue returns kResourceExhausted immediately
};

/// The write side of the anonymization service: a bounded MPSC queue of
/// pending records. Any number of producer threads call Enqueue; exactly one
/// ingest thread calls DrainBatch. Bounding the queue is what turns a burst
/// into backpressure instead of unbounded memory growth (the GutterTree
/// lesson: absorb writes in a buffer sized to the system, not to the burst).
///
/// Records live in a preallocated flat ring (capacity * dim doubles), so a
/// record costs one memcpy in and one memcpy out — no per-record heap
/// traffic, which on the enqueue-bound path is what batching cannot
/// amortize away. Condvar notifies are elided unless a waiter is present.
class IngestQueue {
 public:
  IngestQueue(size_t dim, size_t capacity, BackpressureMode mode);

  IngestQueue(const IngestQueue&) = delete;
  IngestQueue& operator=(const IngestQueue&) = delete;

  size_t dim() const { return dim_; }
  size_t capacity() const { return capacity_; }
  BackpressureMode mode() const { return mode_; }
  size_t pending() const;
  bool closed() const;

  /// Totals since construction, maintained under the queue lock (no extra
  /// per-record synchronization on the producer path).
  uint64_t total_enqueued() const;
  uint64_t total_rejected() const;

  /// Submits one record (point.size() must equal dim()). kBlock mode waits
  /// for space; kReject mode returns ResourceExhausted when full. Both
  /// return FailedPrecondition after Close() (the service is stopping; the
  /// record was not accepted).
  Status Enqueue(std::span<const double> point, int32_t sensitive);

  /// Moves up to `max_batch` records into `*out` (appended in FIFO order),
  /// blocking until at least one record arrives, the queue closes, or
  /// `wake` (evaluated under the queue lock) returns true. Returns the
  /// number of records appended; 0 means drained-and-closed or `wake`
  /// fired on an empty queue. Single-consumer.
  size_t DrainBatch(IngestBatch* out, size_t max_batch,
                    const std::function<bool()>& wake = nullptr);

  /// Stops accepting records; already-queued records remain drainable.
  void Close();

  /// Wakes a blocked DrainBatch so the consumer re-checks `wake`. Make the
  /// state `wake` reads true before calling.
  void Notify();

 private:
  const size_t dim_;
  const size_t capacity_;
  const BackpressureMode mode_;

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::vector<double> points_;      // capacity_ * dim_, ring of points
  std::vector<int32_t> sensitives_; // capacity_, ring of sensitive codes
  size_t head_ = 0;                 // oldest queued record
  size_t count_ = 0;
  size_t push_waiters_ = 0;
  size_t pop_waiters_ = 0;
  uint64_t total_enqueued_ = 0;
  uint64_t total_rejected_ = 0;     // kReject refusals (queue full)
  bool closed_ = false;
};

}  // namespace kanon

#endif  // KANON_SERVICE_INGEST_QUEUE_H_
