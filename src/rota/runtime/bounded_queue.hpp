// A bounded MPMC queue: the admission service's waiting room.
//
// Unbounded queues turn overload into unbounded latency; a bounded queue
// turns it into an explicit, observable shed decision at the front door
// (try_push fails, the caller answers kOverloaded immediately). Producers
// are session threads, the consumer the service's dispatcher, which takes a
// round's worth of requests at a time — a mutex plus one condition variable
// is nowhere near contention-bound at that rate, and it keeps the queue
// trivially correct under ThreadSanitizer.
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

  /// Takes the oldest item. With `wait`, blocks until an item is available
  /// or the queue is closed *and* drained, and returns nullopt only in the
  /// latter case; without, returns nullopt when nothing is queued right now.
  std::optional<T> pop(bool wait = true) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (wait) ready_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
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

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace rota
