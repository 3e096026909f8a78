#include "common/thread_pool.h"

#include <utility>

namespace kanon {

ThreadPool::ThreadPool(size_t num_threads) {
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!stop_ && !workers_.empty()) {
      queue_.push_back(std::move(task));
      lock.unlock();
      cv_.notify_one();
      return;
    }
  }
  // Stopped (or zero workers): the execution guarantee still holds —
  // run the task in the submitting thread.
  task();
}

bool ThreadPool::PopTask(std::function<void()>* out) {
  if (queue_.empty()) return false;
  *out = std::move(queue_.front());
  queue_.pop_front();
  return true;
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    std::function<void()> task;
    if (PopTask(&task)) {
      lock.unlock();
      task();
      lock.lock();
      continue;
    }
    if (stop_) return;  // queue drained and no more work coming
    cv_.wait(lock);
  }
}

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.Join();
  // Workers only exit with the queue empty, and Submit runs inline
  // once stop_ is visible, so nothing is left behind — but drain
  // defensively so the guarantee survives future refactors.
  for (;;) {
    std::function<void()> task;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!PopTask(&task)) break;
    }
    task();
  }
}

}  // namespace kanon
