#ifndef KANON_COMMON_THREAD_H_
#define KANON_COMMON_THREAD_H_

#include <functional>
#include <thread>
#include <utility>

namespace kanon {

/// A thread that joins on destruction — exceptions or early returns in the
/// owner cannot leak a running thread past its captured state's lifetime.
class JoinableThread {
 public:
  JoinableThread() = default;
  explicit JoinableThread(std::function<void()> fn)
      : thread_(std::move(fn)) {}
  ~JoinableThread() { Join(); }

  JoinableThread(JoinableThread&&) = default;
  JoinableThread& operator=(JoinableThread&& other) {
    Join();
    thread_ = std::move(other.thread_);
    return *this;
  }
  JoinableThread(const JoinableThread&) = delete;
  JoinableThread& operator=(const JoinableThread&) = delete;

  bool joinable() const { return thread_.joinable(); }
  void Join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::thread thread_;
};

}  // namespace kanon

#endif  // KANON_COMMON_THREAD_H_
