// A fixed-size worker pool for the admission runtime.
//
// Deliberately work-stealing-free: tasks are pulled from one shared queue
// under a mutex. The runtime's unit of work (planning one admission request)
// costs microseconds to milliseconds, so a single queue is nowhere near
// contention-bound, and the simplicity keeps the pool easy to reason about
// under ThreadSanitizer.
//
// The interface is `submit` / `drain` / `shutdown`. A pool constructed with
// `concurrency` n counts the caller as one lane and spawns n-1 workers, so
// concurrency 1 runs every submitted task inline on the caller — callers
// need no special-casing for the sequential case.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rota {

class ThreadPool {
 public:
  /// A pool delivering `concurrency` total lanes of parallelism (caller
  /// inclusive): spawns `concurrency - 1` workers. 0 is treated as 1.
  explicit ThreadPool(std::size_t concurrency);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total lanes including the calling thread (stable across shutdown()).
  std::size_t concurrency() const { return lanes_; }

  /// Enqueues one task; runs inline when the pool has no workers. Returns
  /// false — task dropped, never run — once shutdown() has begun: a stopping
  /// server must not accept work it cannot finish.
  bool submit(std::function<void()> task);

  /// Blocks until the queue is empty and no task is mid-flight. Does not
  /// stop intake: a quiesce point, not a terminal state (callers wanting
  /// terminal semantics use shutdown()).
  void drain();

  /// Clean shutdown: refuses new submissions, drains queued and in-flight
  /// work to completion, then joins the workers. Safe to call from a
  /// signal-driven stop path and idempotent; the destructor calls it.
  void shutdown();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::size_t lanes_ = 1;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable ready_;
  std::condition_variable idle_;   // signaled when queue empty and active_ == 0
  std::size_t active_ = 0;         // tasks popped but not yet finished
  bool draining_ = false;          // shutdown() begun: submit() refuses
  bool stopping_ = false;          // workers exit once the queue is empty
};

}  // namespace rota
