// A bounded MPMC queue: the admission service's waiting room.
//
// Unbounded queues turn overload into unbounded latency; a bounded queue
// turns it into an explicit, observable shed decision at the front door
// (try_push fails, the caller answers kOverloaded immediately). Producers
// are session threads, consumers the planning lanes on the runtime's
// ThreadPool — the same few-microseconds-to-milliseconds work units the
// pool's single-mutex design is already sized for, so a mutex plus one
// condition variable is nowhere near contention-bound here either, and it
// keeps the queue trivially correct under ThreadSanitizer.
//
// close() wakes every blocked consumer; pops continue to drain what was
// accepted before the close (clean shutdown never abandons admitted work),
// then return nullopt.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace rota {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity ? capacity : 1) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  std::size_t capacity() const { return capacity_; }

  /// Current number of queued items (racy by nature; a metrics gauge).
  std::size_t depth() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  /// Non-blocking push. False — item not enqueued — when full or closed:
  /// the caller sheds explicitly instead of waiting. Takes an rvalue
  /// reference rather than a value so a refused item is NOT consumed — the
  /// caller still owns it (and, in the service, its response callback) and
  /// can answer kOverloaded with it.
  bool try_push(T&& item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    ready_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed *and* drained;
  /// nullopt only in the latter case.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;  // closed and drained
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Stops intake and wakes every blocked consumer. Items already accepted
  /// keep draining through pop(). Idempotent.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    ready_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace rota
