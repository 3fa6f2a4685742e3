#include "rota/runtime/thread_pool.hpp"

namespace rota {

ThreadPool::ThreadPool(std::size_t concurrency)
    : lanes_(concurrency > 0 ? concurrency : 1) {
  const std::size_t workers = lanes_ - 1;
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

bool ThreadPool::submit(std::function<void()> task) {
  if (workers_.empty()) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (draining_) return false;
      ++active_;  // visible to drain() even though the caller runs it inline
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_;
      if (active_ == 0 && queue_.empty()) idle_.notify_all();
    }
    return true;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_) return false;
    queue_.push_back(std::move(task));
  }
  ready_.notify_one();
  return true;
}

void ThreadPool::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::shutdown() {
  {
    // Refuse new work first, then wait out everything queued or mid-flight:
    // nothing accepted is ever abandoned, and nothing late sneaks in.
    std::unique_lock<std::mutex> lock(mutex_);
    draining_ = true;
    idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
    stopping_ = true;
  }
  ready_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_;
      if (active_ == 0 && queue_.empty()) idle_.notify_all();
    }
  }
}

}  // namespace rota
