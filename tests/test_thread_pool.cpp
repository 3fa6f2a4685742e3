#include "rota/runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>

namespace rota {
namespace {

TEST(ThreadPoolTest, ConcurrencyCountsCallerLane) {
  EXPECT_EQ(ThreadPool(0).concurrency(), 1u);
  EXPECT_EQ(ThreadPool(1).concurrency(), 1u);
  EXPECT_EQ(ThreadPool(4).concurrency(), 4u);
}

TEST(ThreadPoolTest, SubmitRunsAllTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&] { ran.fetch_add(1); });
    }
  }  // destructor drains the queue before joining
  EXPECT_EQ(ran.load(), 100);
}

// The clean-shutdown path the admission daemon's SIGINT/SIGTERM handler
// drives: everything submitted before shutdown() runs to completion —
// including tasks a worker has already popped — and nothing submitted after
// is silently swallowed.
TEST(ThreadPoolTest, ShutdownDrainsQueuedAndInFlightWork) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  std::atomic<bool> release{false};
  std::mutex mutex;
  std::condition_variable started_cv;
  int started = 0;
  // Two slow tasks occupy workers (in-flight), the rest queue behind them.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(pool.submit([&] {
      {
        std::lock_guard<std::mutex> lock(mutex);
        ++started;
      }
      started_cv.notify_all();
      while (!release.load()) std::this_thread::yield();
      ran.fetch_add(1);
    }));
  }
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(pool.submit([&] { ran.fetch_add(1); }));
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    started_cv.wait(lock, [&] { return started == 2; });
  }
  std::thread stopper([&] { pool.shutdown(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_LT(ran.load(), 22) << "shutdown() must wait for in-flight work";
  release.store(true);
  stopper.join();
  EXPECT_EQ(ran.load(), 22);
}

TEST(ThreadPoolTest, SubmitAfterShutdownIsRefused) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  ASSERT_TRUE(pool.submit([&] { ran.fetch_add(1); }));
  pool.shutdown();
  EXPECT_EQ(ran.load(), 1);
  EXPECT_FALSE(pool.submit([&] { ran.fetch_add(1); }))
      << "a stopping server must not accept work it cannot finish";
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(pool.concurrency(), 3u) << "lane count is stable across shutdown";
}

TEST(ThreadPoolTest, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.submit([&] { ran.fetch_add(1); });
  pool.shutdown();
  pool.shutdown();  // second call (and the destructor's third) must be no-ops
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolTest, DrainWaitsForInFlightWithoutStoppingIntake) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  std::atomic<bool> release{false};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&] {
      while (!release.load()) std::this_thread::yield();
      ran.fetch_add(1);
    });
  }
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    release.store(true);
  });
  pool.drain();
  EXPECT_EQ(ran.load(), 8) << "drain() returns only once all work finished";
  releaser.join();
  // drain() is a quiesce point, not a terminal state: intake continues.
  EXPECT_TRUE(pool.submit([&] { ran.fetch_add(1); }));
  pool.drain();
  EXPECT_EQ(ran.load(), 9);
}

TEST(ThreadPoolTest, InlinePoolRunsOnCallerThread) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::set<std::thread::id> ids;
  for (int i = 0; i < 16; ++i) {
    pool.submit([&] { ids.insert(std::this_thread::get_id()); });
  }
  pool.drain();
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(*ids.begin(), caller);
}

}  // namespace
}  // namespace rota
