#ifndef KANON_COMMON_THREAD_POOL_H_
#define KANON_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include "common/thread.h"

namespace kanon {

/// Fixed-size pool of worker threads over one FIFO task queue guarded by
/// one mutex: tasks start oldest first. Its tasks are coarse — one HTTP
/// request's handler each — so the lock is never the bottleneck, and the
/// pool stays easy to prove race-free under TSan.
///
/// Execution guarantee: every task Submit() accepts is executed exactly
/// once — by a worker, by Shutdown()'s drain, or (when the pool is
/// already stopped) inline in the submitting thread. Work never
/// silently disappears, so callers may park completion state (promises,
/// latches, Status slots) inside task closures.
///
/// The pool is oblivious to task failures by design: tasks return void
/// and report errors through whatever state they capture. Nothing in
/// the tree throws, so no exception barrier is needed.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers. Zero is legal and makes Submit() run
  /// everything inline.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();  // implies Shutdown()

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task` for execution. After Shutdown() (or with zero
  /// workers) the task runs inline before Submit returns.
  void Submit(std::function<void()> task);

  /// Stops the pool: workers finish every queued task, then exit and
  /// are joined. Idempotent; concurrent Submit() calls remain safe and
  /// keep the execution guarantee.
  void Shutdown();

 private:
  void WorkerLoop();
  /// Pops the oldest queued task. Requires mu_ held; returns false when
  /// the queue is empty.
  bool PopTask(std::function<void()>* out);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<JoinableThread> workers_;
};

}  // namespace kanon

#endif  // KANON_COMMON_THREAD_POOL_H_
