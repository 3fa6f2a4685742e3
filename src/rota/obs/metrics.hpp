// Metrics: named counters, gauges and fixed-bucket histograms.
//
// The registry is the passive half of the observability layer (the active
// half — spans — lives in rota/obs/trace.hpp). Instruments are sharded per
// thread so the admission pipeline's planning lanes never contend on a cache
// line: each increment touches one of kShards cache-line-aligned slots chosen
// by a stable per-thread index, and reads sum the shards. All reads and
// writes are relaxed atomics — counters are monotone statistics, not
// synchronization; a snapshot taken while writers run is a consistent
// "some recent value" per instrument.
//
// The built-in instrumentation records into MetricsRegistry::global(), gated
// by the process-wide toggle in rota/obs/obs.hpp; with metrics disabled an
// instrumented hot path pays one relaxed load and a predictable branch. A
// component may also own a registry of its own and record into it ungated
// (the admission service does: its stats() is a snapshot of one).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rota::obs {

/// Number of per-thread shards per instrument. A power of two; more threads
/// than shards just share slots (still correct, mildly more contended).
inline constexpr std::size_t kMetricShards = 16;

/// Stable shard index for the calling thread, assigned round-robin on first
/// use so the pool's lanes land on distinct shards.
std::size_t metric_shard_index();

/// Monotone event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    shards_[metric_shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }
  void reset() {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Shard, kMetricShards> shards_;
};

/// Last-writer-wins instantaneous value (e.g. a revision, a lane count), or
/// a high-water mark through set_max().
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  /// Raises the value to `v` if it is larger (a running maximum).
  void set_max(std::int64_t v) {
    std::int64_t prev = v_.load(std::memory_order_relaxed);
    while (prev < v &&
           !v_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fixed log2-bucket histogram for non-negative samples (latencies in ns,
/// batch sizes, ...). Bucket i counts samples whose value v satisfies
/// 2^(i-1) < v <= 2^i (bucket 0 counts v <= 1); values past the last bucket
/// clamp into it. No allocation, no locks on the record path.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 48;  // covers > 3 days in ns

  void record(std::uint64_t v) {
    Shard& s = shards_[metric_shard_index()];
    s.buckets[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
  }

  static std::size_t bucket_of(std::uint64_t v) {
    std::size_t b = 0;
    while (b + 1 < kBuckets && v > (std::uint64_t{1} << b)) ++b;
    return b;
  }
  /// Inclusive upper edge of bucket `b` (2^b).
  static std::uint64_t bucket_upper(std::size_t b) { return std::uint64_t{1} << b; }

  std::uint64_t count() const;
  std::uint64_t sum() const;
  void reset();

  /// Summed per-bucket counts.
  std::array<std::uint64_t, kBuckets> buckets() const;

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
  };
  std::array<Shard, kMetricShards> shards_;
};

struct HistogramSnapshot {
  std::vector<std::uint64_t> buckets;  // kBuckets entries
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Upper bound (bucket edge) below which at least fraction `p` of the
  /// samples fall; 0 when empty. p in [0, 1].
  std::uint64_t quantile_upper_bound(double p) const;

  bool operator==(const HistogramSnapshot&) const = default;
};

/// A point-in-time copy of every registered instrument.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  bool empty() const { return counters.empty() && gauges.empty() && histograms.empty(); }
  /// counters[name], 0 when absent — convenient for test assertions.
  std::uint64_t counter(const std::string& name) const;

  /// Stable-field-order JSON object (dependency-free, like rota/io/trace).
  std::string to_json() const;
  std::string to_string() const;

  bool operator==(const MetricsSnapshot&) const = default;
};

/// Named instruments, created on first use and alive for the registry's
/// lifetime (storage is node-stable: handles returned by counter()/gauge()/
/// histogram() never move). Lookup takes a mutex — resolve handles once,
/// outside hot loops.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  MetricsSnapshot snapshot() const;
  /// Zeroes every instrument; registrations (and handles) stay valid.
  void reset();

  /// The process-wide registry the built-in instrumentation records into.
  static MetricsRegistry& global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace rota::obs
