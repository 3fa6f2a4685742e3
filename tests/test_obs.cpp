// Observability layer: metrics registry correctness under the pool's lanes
// (this file runs under the tsan ctest label), and the shape of the Chrome
// trace JSON a traced admission run emits — every B paired with its E,
// timestamps monotone per thread.
#include "rota/obs/obs.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "rota/computation/requirement.hpp"
#include "rota/runtime/batch_controller.hpp"
#include "rota/runtime/thread_pool.hpp"
#include "rota/workload/generator.hpp"

namespace rota {
namespace {

TEST(Metrics, CounterGaugeHistogramBasics) {
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.counter("c");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(&c, &registry.counter("c"));  // stable handle

  registry.gauge("g").set(-7);
  EXPECT_EQ(registry.gauge("g").value(), -7);

  obs::Histogram& h = registry.histogram("h");
  h.record(0);
  h.record(1);
  h.record(2);
  h.record(1000);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1003u);

  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("c"), 42u);
  EXPECT_EQ(snap.counter("missing"), 0u);
  EXPECT_EQ(snap.gauges.at("g"), -7);
  EXPECT_EQ(snap.histograms.at("h").count, 4u);
  EXPECT_GE(snap.histograms.at("h").quantile_upper_bound(1.0), 1000u);

  registry.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(registry.gauge("g").value(), 0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(Metrics, HistogramBucketEdges) {
  // Bucket i holds v in (2^(i-1), 2^i]; bucket 0 holds v <= 1.
  EXPECT_EQ(obs::Histogram::bucket_of(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_of(1), 0u);
  EXPECT_EQ(obs::Histogram::bucket_of(2), 1u);
  EXPECT_EQ(obs::Histogram::bucket_of(3), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(4), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(5), 3u);
  EXPECT_EQ(obs::Histogram::bucket_of(std::uint64_t{1} << 40), 40u);
  // Values past the last bucket clamp instead of indexing out of range.
  EXPECT_EQ(obs::Histogram::bucket_of(~std::uint64_t{0}), obs::Histogram::kBuckets - 1);
}

TEST(Metrics, HammeredFromThreadPoolLanesStaysExact) {
  obs::MetricsRegistry registry;
  obs::Counter& hits = registry.counter("hits");
  obs::Histogram& lat = registry.histogram("lat");
  ThreadPool pool(8);
  constexpr std::size_t kTasks = 64;
  constexpr std::size_t kPerTask = 5000;
  for (std::size_t i = 0; i < kTasks; ++i) {
    pool.submit([&, i] {
      for (std::size_t k = 0; k < kPerTask; ++k) {
        hits.add();
        lat.record(i);
        // Registration races too: every lane asks for the same named counter.
        registry.counter("shared").add();
      }
    });
  }
  pool.drain();
  EXPECT_EQ(hits.value(), kTasks * kPerTask);
  EXPECT_EQ(registry.counter("shared").value(), kTasks * kPerTask);
  EXPECT_EQ(lat.count(), kTasks * kPerTask);
  const obs::MetricsSnapshot snap = registry.snapshot();
  std::uint64_t bucket_total = 0;
  for (std::uint64_t b : snap.histograms.at("lat").buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, kTasks * kPerTask);
}

TEST(Metrics, SnapshotJsonHasStableShape) {
  obs::MetricsRegistry registry;
  registry.counter("a.b").add(3);
  registry.gauge("g").set(5);
  registry.histogram("h").record(7);
  const std::string json = registry.snapshot().to_json();
  EXPECT_NE(json.find("\"counters\": {\"a.b\": 3}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"gauges\": {\"g\": 5}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"h\": {\"count\": 1"), std::string::npos) << json;
}

// --------------------------------------------------------------------------
// Trace golden shape.

struct ParsedEvent {
  std::string name;
  char phase = '?';
  double ts = 0.0;
  int tid = -1;
};

std::string field(const std::string& line, const std::string& key) {
  const std::string tag = "\"" + key + "\": ";
  const auto pos = line.find(tag);
  if (pos == std::string::npos) return {};
  auto begin = pos + tag.size();
  auto end = begin;
  if (line[begin] == '"') {
    ++begin;
    end = line.find('"', begin);
  } else {
    end = line.find_first_of(",}", begin);
  }
  return line.substr(begin, end - begin);
}

std::vector<ParsedEvent> parse_events(const std::string& json) {
  std::vector<ParsedEvent> events;
  std::size_t pos = 0;
  while ((pos = json.find("{\"name\": ", pos)) != std::string::npos) {
    // One event per line; the flat fields all precede any "args" object, so
    // field() never has to look past a nested comma.
    const std::size_t end = json.find('\n', pos);
    std::string line =
        json.substr(pos, end == std::string::npos ? end : end - pos);
    ParsedEvent e;
    e.name = field(line, "name");
    const std::string ph = field(line, "ph");
    e.phase = ph.empty() ? '?' : ph[0];
    e.ts = std::stod(field(line, "ts"));
    e.tid = std::stoi(field(line, "tid"));
    events.push_back(std::move(e));
    pos = end == std::string::npos ? json.size() : end + 1;
  }
  return events;
}

TEST(Trace, TracedBatchRunEmitsWellFormedChromeJson) {
  WorkloadConfig config;
  config.seed = 11;
  config.mean_interarrival = 4.0;
  config.laxity = 1.4;
  CostModel phi;
  WorkloadGenerator gen(config, phi);
  const Tick horizon = 200;
  std::vector<BatchRequest> requests;
  for (const Arrival& a : gen.make_arrivals(horizon)) {
    requests.push_back(BatchRequest{make_concurrent_requirement(phi, a.computation), a.at});
  }
  ASSERT_GT(requests.size(), 10u);

  obs::MetricsRegistry::global().reset();
  obs::enable_metrics(true);
  obs::TraceRecorder recorder;
  recorder.install();
  BatchAdmissionController ctl(phi, gen.base_supply(TimeInterval(0, horizon)),
                               PlanningPolicy::kAsap, 4);
  const auto decisions = ctl.admit_batch(requests);
  recorder.uninstall();
  obs::enable_metrics(false);
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();

  // Counters reconcile with the decision vector.
  std::size_t accepted = 0;
  for (const auto& d : decisions) accepted += d.accepted ? 1 : 0;
  EXPECT_EQ(snap.counter("plan.commit.accepted"), accepted);
  EXPECT_EQ(snap.counter("plan.commit.accepted") +
                snap.counter("plan.commit.rejected.deadline_passed") +
                snap.counter("plan.commit.rejected.no_plan") +
                snap.counter("plan.commit.rejected.conflict"),
            decisions.size());
  EXPECT_GT(snap.counter("batch.rounds"), 0u);
  EXPECT_GE(snap.counter("plan.speculate.count"), decisions.size());
  EXPECT_EQ(snap.histograms.at("batch.round_ns").count, snap.counter("batch.rounds"));

  const std::string json = recorder.to_chrome_json(&snap);
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(json.find("\"metrics\": "), std::string::npos);

  const std::vector<ParsedEvent> events = parse_events(json);
  ASSERT_GT(events.size(), 4u);

  // Spans for every pipeline stage are present.
  std::map<std::string, std::size_t> names;
  for (const auto& e : events) names[e.name]++;
  EXPECT_GT(names["batch.round"], 0u);
  EXPECT_GT(names["plan.snapshot"], 0u);
  EXPECT_GT(names["plan.speculate"], 0u);
  EXPECT_GT(names["batch.commit"], 0u);
  EXPECT_GT(names["plan.commit"], 0u);
  EXPECT_GT(names["ledger.admit"], 0u);

  // Per thread: timestamps monotone, B/E properly nested and balanced.
  std::map<int, double> last_ts;
  std::map<int, std::vector<std::string>> stacks;
  for (const auto& e : events) {
    ASSERT_TRUE(e.phase == 'B' || e.phase == 'E' || e.phase == 'i') << e.phase;
    auto [it, inserted] = last_ts.try_emplace(e.tid, e.ts);
    if (!inserted) {
      EXPECT_GE(e.ts, it->second) << "ts regressed on tid " << e.tid;
      it->second = e.ts;
    }
    auto& stack = stacks[e.tid];
    if (e.phase == 'B') {
      stack.push_back(e.name);
    } else if (e.phase == 'E') {
      ASSERT_FALSE(stack.empty()) << "E without B on tid " << e.tid;
      EXPECT_EQ(stack.back(), e.name) << "mismatched E on tid " << e.tid;
      stack.pop_back();
    }
  }
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
  }
}

TEST(Trace, NoSinkMeansNoEventsAndNoCrash) {
  ASSERT_EQ(obs::TraceRecorder::current(), nullptr);
  { ROTA_OBS_SPAN("orphan"); }
  obs::TraceRecorder recorder;  // never installed
  { ROTA_OBS_SPAN("still-orphan"); }
  EXPECT_EQ(recorder.event_count(), 0u);
}

TEST(Trace, ReinstallingRecordersKeepsLogsSeparate) {
  obs::TraceRecorder first;
  first.install();
  { ROTA_OBS_SPAN("one"); }
  first.uninstall();

  obs::TraceRecorder second;
  second.install();
  { ROTA_OBS_SPAN("two"); }
  second.uninstall();

  EXPECT_EQ(first.event_count(), 2u);   // one B + one E
  EXPECT_EQ(second.event_count(), 2u);
  EXPECT_NE(first.to_chrome_json().find("\"one\""), std::string::npos);
  EXPECT_EQ(first.to_chrome_json().find("\"two\""), std::string::npos);
  EXPECT_NE(second.to_chrome_json().find("\"two\""), std::string::npos);
}

}  // namespace
}  // namespace rota
