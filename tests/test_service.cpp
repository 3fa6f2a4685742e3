// The admission service: codec, bounded queue, anytime strategy ladder, SLO
// governor, shedding, clean drain, and the socket round trip.
//
// The load-bearing suite is the strategy/governor set: an injected slow
// kExact must drive demotion under a tight budget, degraded strategies must
// never be unsafely optimistic (every degraded accept re-validated against
// the exact kernel and the live residual), the governor must promote back
// once pressure clears, and shed requests must be answered with kOverloaded
// — never silence. Runs in rota_runtime_tests, so ThreadSanitizer covers the
// lanes/session/governor interleavings.
#include "rota/service/service.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "rota/obs/obs.hpp"
#include "rota/runtime/bounded_queue.hpp"
#include "rota/service/client.hpp"
#include "rota/service/server.hpp"
#include "rota/workload/generator.hpp"

namespace rota::service {
namespace {

constexpr Tick kHorizon = 2000;

WorkloadGenerator make_generator(std::uint64_t seed) {
  WorkloadConfig config;
  config.seed = seed;
  config.num_locations = 3;
  config.laxity = 2.5;
  return WorkloadGenerator(config, CostModel{});
}

AdmitRequest make_request(WorkloadGenerator& gen, std::uint64_t id, Tick at,
                          std::uint64_t budget_us = 0) {
  AdmitRequest request;
  request.id = id;
  request.at = at;
  request.budget_us = budget_us;
  request.computation = gen.make_computation(at);
  return request;
}

// ---- codec ----------------------------------------------------------------

TEST(ServiceCodec, RequestRoundTripsThroughTheDsl) {
  WorkloadGenerator gen = make_generator(1);
  const AdmitRequest request = make_request(gen, 42, 7, 1500);
  const AdmitRequest back = parse_request(request_payload(request));
  EXPECT_EQ(back, request);
}

TEST(ServiceCodec, ResponseRoundTripsWithAndWithoutReason) {
  AdmitResponse r;
  r.id = 9;
  r.verdict = Verdict::kAccepted;
  r.strategy = "digest";
  r.planning_ns = 123456;
  r.queue_ns = 789;
  EXPECT_EQ(parse_response(response_payload(r)), r);

  r.verdict = Verdict::kOverloaded;
  r.strategy.clear();  // shed responses carry no strategy ("-" on the wire)
  r.reason = "admission queue full";
  EXPECT_EQ(parse_response(response_payload(r)), r);
}

TEST(ServiceCodec, MalformedPayloadsThrow) {
  EXPECT_THROW(parse_request("admit 1 2\nend\n"), CodecError);  // short header
  EXPECT_THROW(parse_request("admit x 2 3\n"), CodecError);     // bad id
  EXPECT_THROW(parse_request("admit 1 2 3\n"), CodecError);     // no computation
  WorkloadGenerator gen = make_generator(2);
  // A request body smuggling a supply section is refused outright.
  std::string payload = request_payload(make_request(gen, 1, 0));
  payload += "supply\n  cpu l1 1 0 10\nend\n";
  EXPECT_THROW(parse_request(payload), CodecError);
  EXPECT_THROW(parse_response("decision 1 accepted\n"), CodecError);
  EXPECT_THROW(parse_response("decision 1 maybe - 0 0\n"), CodecError);
}

TEST(ServiceCodec, FrameReaderReassemblesArbitraryChunks) {
  WorkloadGenerator gen = make_generator(3);
  const std::string a = request_payload(make_request(gen, 1, 0));
  const std::string b = request_payload(make_request(gen, 2, 5));
  const std::string stream = frame(a) + frame(b);

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3}, stream.size()}) {
    FrameReader reader;
    std::vector<std::string> payloads;
    for (std::size_t i = 0; i < stream.size(); i += chunk) {
      reader.feed(stream.data() + i, std::min(chunk, stream.size() - i));
      while (auto p = reader.next()) payloads.push_back(*p);
    }
    ASSERT_EQ(payloads.size(), 2u) << "chunk=" << chunk;
    EXPECT_EQ(payloads[0], a);
    EXPECT_EQ(payloads[1], b);
    EXPECT_EQ(reader.buffered(), 0u);
  }
}

TEST(ServiceCodec, OversizeFrameIsRejectedNotBuffered) {
  FrameReader reader;
  const std::uint32_t huge = kMaxFramePayload + 1;
  char header[4] = {static_cast<char>(huge & 0xff),
                    static_cast<char>((huge >> 8) & 0xff),
                    static_cast<char>((huge >> 16) & 0xff),
                    static_cast<char>((huge >> 24) & 0xff)};
  reader.feed(header, 4);
  EXPECT_THROW(reader.next(), CodecError);
  EXPECT_THROW(frame(std::string(kMaxFramePayload + 1, 'x')), CodecError);
}

// ---- bounded queue --------------------------------------------------------

TEST(BoundedQueueTest, TryPushRefusesWhenFullAndPreservesTheItem) {
  BoundedQueue<std::unique_ptr<int>> queue(1);
  EXPECT_TRUE(queue.try_push(std::make_unique<int>(1)));
  auto second = std::make_unique<int>(2);
  EXPECT_FALSE(queue.try_push(std::move(second)));
  // The refused item was NOT consumed: the caller can still answer with it
  // (in the service: the shed response travels through the preserved
  // callback).
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(*second, 2);
  EXPECT_EQ(queue.depth(), 1u);
}

TEST(BoundedQueueTest, CloseWakesConsumersAndDrainsAcceptedItems) {
  BoundedQueue<int> queue(4);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  queue.close();
  EXPECT_FALSE(queue.try_push(3)) << "closed queue refuses intake";
  EXPECT_EQ(queue.pop(), std::optional<int>(1));
  EXPECT_EQ(queue.pop(), std::optional<int>(2));
  EXPECT_EQ(queue.pop(), std::nullopt) << "closed and drained";

  BoundedQueue<int> empty(1);
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    empty.close();
  });
  EXPECT_EQ(empty.pop(), std::nullopt) << "close() wakes a blocked pop";
  closer.join();
}

// ---- strategy registry & governor -----------------------------------------

/// Wraps the real exact strategy with a controllable delay — the test's
/// stand-in for "exact planning became expensive under this workload".
class SlowExact final : public AnytimeStrategy {
 public:
  SlowExact(PlanningKernel kernel, std::atomic<int>& delay_ms)
      : kernel_(kernel), delay_ms_(delay_ms) {}
  const char* name() const override { return "exact"; }
  PlanResult speculate(const ConcurrentRequirement& rho, Tick at,
                       const FeasibilitySnapshot& snapshot,
                       const CancellationToken& cancel) override {
    const int ms = delay_ms_.load();
    if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    SpeculateOptions options;
    options.cancel = &cancel;
    return kernel_.speculate(rho, at, snapshot, options);
  }

 private:
  const PlanningKernel kernel_;  // by value: callers pass a temporary
  std::atomic<int>& delay_ms_;
};

/// Blocks inside speculate() until released — holds a lane mid-request so
/// shedding and drain behavior can be observed deterministically.
class LatchedExact final : public AnytimeStrategy {
 public:
  explicit LatchedExact(PlanningKernel kernel) : kernel_(kernel) {}
  const char* name() const override { return "exact"; }
  PlanResult speculate(const ConcurrentRequirement& rho, Tick at,
                       const FeasibilitySnapshot& snapshot,
                       const CancellationToken& cancel) override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ++entered_;
      entered_cv_.notify_all();
      released_cv_.wait(lock, [this] { return released_; });
    }
    SpeculateOptions options;
    options.cancel = &cancel;
    return kernel_.speculate(rho, at, snapshot, options);
  }
  void await_entered() {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_cv_.wait(lock, [this] { return entered_ > 0; });
  }
  void release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    released_cv_.notify_all();
  }

 private:
  const PlanningKernel kernel_;  // by value: callers pass a temporary
  std::mutex mutex_;
  std::condition_variable entered_cv_, released_cv_;
  int entered_ = 0;
  bool released_ = false;
};

TEST(ServiceGovernor, SlowExactForcesDemotionUnderTightBudget) {
  WorkloadGenerator gen = make_generator(10);
  CommitmentLedger ledger(gen.base_supply(TimeInterval(0, kHorizon)));
  ServiceConfig config;
  config.lanes = 1;
  config.default_budget_us = 3'000;       // 3ms budget...
  config.governor.slo_ns = 1'000'000;     // ...and a 1ms SLO,
  config.governor.demote_after = 2;       // demoting fast
  AdmissionService svc(ledger, gen.phi(), config);
  static std::atomic<int> delay_ms{8};    // against an 8ms exact strategy
  svc.registry().replace(
      StrategyKind::kExact,
      std::make_unique<SlowExact>(PlanningKernel{}, delay_ms));

  std::vector<AdmitResponse> responses;
  for (std::uint64_t i = 0; i < 8; ++i) {
    responses.push_back(svc.admit(make_request(gen, i + 1, static_cast<Tick>(i))));
  }
  const obs::MetricsSnapshot stats = svc.stats();
  EXPECT_GE(stats.counter("service.demotions"), 1u) << "sustained overruns must demote";
  EXPECT_NE(svc.governor().level(), StrategyKind::kExact);
  // Early requests burned their budget inside the slow exact rung and were
  // shed — explicitly, with a reason, never silently.
  ASSERT_EQ(responses.front().verdict, Verdict::kOverloaded);
  EXPECT_EQ(responses.front().reason, "planning budget exhausted");
  // Once demoted, requests are decided by a degraded rung within budget.
  const AdmitResponse& last = responses.back();
  EXPECT_NE(last.verdict, Verdict::kOverloaded);
  EXPECT_TRUE(last.strategy == "digest" || last.strategy == "greedy")
      << last.strategy;
  EXPECT_EQ(stats.counter("service.revalidations_failed"), 0u);
}

TEST(ServiceGovernor, CostModelStopsPickingExactOnceItLearnsTheCost) {
  WorkloadGenerator gen = make_generator(11);
  CommitmentLedger ledger(gen.base_supply(TimeInterval(0, kHorizon)));
  ServiceConfig config;
  config.lanes = 1;
  config.default_budget_us = 500'000;  // generous: the slow exact rung fits
  AdmissionService svc(ledger, gen.phi(), config);
  static std::atomic<int> delay_ms2{6};
  svc.registry().replace(
      StrategyKind::kExact,
      std::make_unique<SlowExact>(PlanningKernel{}, delay_ms2));

  // Served by exact (EWMA learns ~6ms), still within the generous budget.
  const AdmitResponse first = svc.admit(make_request(gen, 1, 0));
  EXPECT_EQ(first.strategy, "exact");
  // A tight-budget request must now be steered away from exact *before*
  // burning its budget — the EWMA predicted the overrun. (Tight relative to
  // the ≥ 6 ms exact EWMA, roomy enough for a degraded rung on slow hosts.)
  const AdmitResponse tight = svc.admit(make_request(gen, 2, 1, /*budget_us=*/5'000));
  EXPECT_NE(tight.verdict, Verdict::kOverloaded);
  EXPECT_TRUE(tight.strategy == "digest" || tight.strategy == "greedy")
      << tight.strategy;
  EXPECT_EQ(svc.stats().counter("service.demotions"), 0u)
      << "per-request steering, not governor demotion";
}

TEST(ServiceGovernor, PromotesBackAfterPressureClears) {
  WorkloadGenerator gen = make_generator(12);
  CommitmentLedger ledger(gen.base_supply(TimeInterval(0, kHorizon)));
  ServiceConfig config;
  config.lanes = 1;
  config.default_budget_us = 3'000;
  config.governor.slo_ns = 1'000'000;
  config.governor.demote_after = 2;
  config.governor.promote_after = 4;
  config.governor.latency_window = 8;  // short memory: recovery is visible
  AdmissionService svc(ledger, gen.phi(), config);
  static std::atomic<int> delay_ms3{8};
  svc.registry().replace(
      StrategyKind::kExact,
      std::make_unique<SlowExact>(PlanningKernel{}, delay_ms3));

  std::uint64_t id = 0;
  for (int i = 0; i < 6; ++i) {
    svc.admit(make_request(gen, ++id, static_cast<Tick>(i)));
  }
  ASSERT_NE(svc.governor().level(), StrategyKind::kExact) << "setup: demoted";

  delay_ms3.store(0);  // pressure clears: exact is fast again
  for (int i = 0; i < 40 && svc.governor().level() != StrategyKind::kExact; ++i) {
    svc.admit(make_request(gen, ++id, static_cast<Tick>(i)));
  }
  EXPECT_EQ(svc.governor().level(), StrategyKind::kExact)
      << "sustained calm must promote back to the top rung";
  EXPECT_GE(svc.stats().counter("service.promotions"), 1u);
}

// Degraded strategies may be pessimistic, never optimistic: anything kDigest
// or kGreedy calls feasible, the exact kernel must also call feasible, and
// the plan must fit the live snapshot it was computed against.
TEST(ServiceStrategies, DegradedAcceptsAreNeverUnsafelyOptimistic) {
  WorkloadGenerator gen = make_generator(13);
  CommitmentLedger ledger(gen.base_supply(TimeInterval(0, kHorizon)));
  const PlanningKernel kernel;
  StrategyRegistry registry(kernel, /*digest_max_segments=*/8);
  const CancellationToken never;

  std::size_t degraded_accepts = 0, degraded_pessimistic = 0;
  for (const Arrival& a : gen.make_arrivals(kHorizon)) {
    const ConcurrentRequirement rho =
        make_concurrent_requirement(gen.phi(), a.computation);
    const FeasibilitySnapshot snapshot = FeasibilitySnapshot::capture(
        ledger, effective_window(rho, a.at), touched_shard_mask(rho));
    const PlanResult exact = kernel.speculate(rho, a.at, snapshot);
    for (const StrategyKind kind : {StrategyKind::kDigest, StrategyKind::kGreedy}) {
      const PlanResult degraded =
          registry.strategy(kind).speculate(rho, a.at, snapshot, never);
      if (degraded.feasible()) {
        ++degraded_accepts;
        EXPECT_TRUE(exact.feasible())
            << strategy_name(kind) << " accepted what exact rejects: " << rho.name();
        // Re-validation: the degraded plan must fit the snapshot's residual
        // (minus() refuses plans the view does not cover — the same check
        // CommitmentLedger::admit makes at commit).
        EXPECT_TRUE(snapshot.minus(*degraded.plan).has_value())
            << strategy_name(kind) << " plan not covered for " << rho.name();
      } else if (exact.feasible()) {
        ++degraded_pessimistic;  // allowed: degradation costs acceptance rate
      }
    }
    // Evolve the ledger with the exact decision so later snapshots see a
    // progressively fragmented residual.
    AdmissionDecision ignored;
    kernel.commit(exact, ledger, ignored);
  }
  EXPECT_GT(degraded_accepts, 0u) << "workload never exercised degraded accepts";
}

// ---- shedding & drain -----------------------------------------------------

TEST(ServiceShedding, QueueFullAnswersOverloadedImmediatelyNeverSilence) {
  WorkloadGenerator gen = make_generator(14);
  CommitmentLedger ledger(gen.base_supply(TimeInterval(0, kHorizon)));
  ServiceConfig config;
  config.lanes = 1;
  config.queue_capacity = 1;
  AdmissionService svc(ledger, gen.phi(), config);
  auto latched = std::make_unique<LatchedExact>(PlanningKernel{});
  LatchedExact* latch = latched.get();
  svc.registry().replace(StrategyKind::kExact, std::move(latched));

  std::mutex mutex;
  std::vector<AdmitResponse> responses;
  const auto collect = [&](const AdmitResponse& r) {
    std::lock_guard<std::mutex> lock(mutex);
    responses.push_back(r);
  };

  svc.submit(make_request(gen, 1, 0), collect);  // occupies the single lane
  latch->await_entered();
  svc.submit(make_request(gen, 2, 1), collect);  // fills the queue
  for (std::uint64_t id = 3; id <= 6; ++id) {    // these must shed inline
    svc.submit(make_request(gen, id, 2), collect);
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    ASSERT_EQ(responses.size(), 4u) << "sheds answer synchronously";
    for (const AdmitResponse& r : responses) {
      EXPECT_EQ(r.verdict, Verdict::kOverloaded);
      EXPECT_EQ(r.reason, "admission queue full");
      EXPECT_GE(r.id, 3u);
    }
  }
  latch->release();
  svc.drain_and_stop();
  std::lock_guard<std::mutex> lock(mutex);
  EXPECT_EQ(responses.size(), 6u) << "every submitted request was answered";
  EXPECT_EQ(svc.stats().counter("service.shed_queue"), 4u);
}

// Without a lane nothing would ever dequeue a submit: the service refuses to
// be built rather than swallow requests.
TEST(ServiceConfigCheck, ZeroLanesIsRefusedAtConstruction) {
  WorkloadGenerator gen = make_generator(16);
  CommitmentLedger ledger(gen.base_supply(TimeInterval(0, kHorizon)));
  ServiceConfig config;
  config.lanes = 0;
  EXPECT_THROW(AdmissionService(ledger, gen.phi(), config), std::invalid_argument);
  config.lanes = 1;
  AdmissionService svc(ledger, gen.phi(), config);
  AdmitResponse answer;
  svc.submit(make_request(gen, 1, 0), [&](const AdmitResponse& r) { answer = r; });
  svc.drain_and_stop();
  EXPECT_EQ(answer.id, 1u) << "a one-lane service answers";
}

TEST(ServiceShedding, DrainAnswersEverythingAndStopsIntake) {
  WorkloadGenerator gen = make_generator(15);
  CommitmentLedger ledger(gen.base_supply(TimeInterval(0, kHorizon)));
  ServiceConfig config;
  config.lanes = 2;
  config.queue_capacity = 64;
  AdmissionService svc(ledger, gen.phi(), config);

  std::atomic<std::size_t> answered{0};
  const std::size_t n = 32;
  for (std::uint64_t i = 0; i < n; ++i) {
    svc.submit(make_request(gen, i + 1, static_cast<Tick>(i)),
               [&](const AdmitResponse&) { answered.fetch_add(1); });
  }
  svc.drain_and_stop();
  EXPECT_EQ(answered.load(), n) << "clean drain abandons nothing";

  // Post-stop submissions are shed, not swallowed.
  AdmitResponse late;
  svc.submit(make_request(gen, 99, 0),
             [&](const AdmitResponse& r) { late = r; });
  EXPECT_EQ(late.verdict, Verdict::kOverloaded);
}

// ---- stats: the service's own registry ------------------------------------

// Submitters race a stats() reader. Every submit ends in exactly one of the
// four outcomes, and every answer that names a strategy was counted (and
// timed) under that strategy.
TEST(ServiceMetrics, ConcurrentSubmittersAndAReaderBalanceTheBooks) {
  WorkloadGenerator gen = make_generator(23);
  CommitmentLedger ledger(gen.base_supply(TimeInterval(0, kHorizon)));
  ServiceConfig config;
  config.lanes = 2;
  config.queue_capacity = 8;  // small: some submits shed at the front door
  AdmissionService svc(ledger, gen.phi(), config);

  constexpr std::size_t kThreads = 3, kPerThread = 40;
  std::vector<std::vector<AdmitRequest>> batches(kThreads);
  std::uint64_t id = 0;
  for (auto& batch : batches) {
    for (std::size_t i = 0; i < kPerThread; ++i) {
      ++id;
      // Every fifth request has a 1 us budget: it sheds on budget instead.
      batch.push_back(make_request(gen, id, static_cast<Tick>(id % 200),
                                   id % 5 == 0 ? 1 : 0));
    }
  }

  std::mutex mutex;
  std::vector<AdmitResponse> responses;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    std::uint64_t last = 0;
    while (!done.load()) {
      const std::uint64_t requests = svc.stats().counter("service.requests");
      EXPECT_GE(requests, last) << "a counter went backwards";
      last = requests;
    }
  });
  std::vector<std::thread> submitters;
  for (auto& batch : batches) {
    submitters.emplace_back([&svc, &mutex, &responses, &batch] {
      for (AdmitRequest& request : batch) {
        svc.submit(std::move(request), [&](const AdmitResponse& r) {
          std::lock_guard<std::mutex> lock(mutex);
          responses.push_back(r);
        });
      }
    });
  }
  for (auto& t : submitters) t.join();
  svc.drain_and_stop();
  done.store(true);
  reader.join();

  const obs::MetricsSnapshot stats = svc.stats();
  const std::uint64_t requests = stats.counter("service.requests");
  EXPECT_EQ(requests, kThreads * kPerThread);
  EXPECT_EQ(responses.size(), requests);
  EXPECT_EQ(requests, stats.counter("service.accepted") +
                          stats.counter("service.rejected") +
                          stats.counter("service.shed_queue") +
                          stats.counter("service.shed_budget"));
  std::uint64_t served = 0;
  for (const char* strategy : {"exact", "digest", "greedy"}) {
    const std::uint64_t n = stats.counter(std::string("service.served.") + strategy);
    EXPECT_EQ(stats.histograms.at(std::string("service.latency.") + strategy + "_ns")
                  .count,
              n)
        << strategy;
    served += n;
  }
  std::uint64_t with_strategy = 0;
  for (const AdmitResponse& r : responses) with_strategy += !r.strategy.empty();
  EXPECT_EQ(served, with_strategy);
  EXPECT_EQ(stats.counter("service.revalidations_failed"), 0u);
}

// Two services in one process (as e20 runs them) count apart.
TEST(ServiceMetrics, TwoServicesKeepSeparateCounts) {
  WorkloadGenerator gen = make_generator(24);
  CommitmentLedger ledger_a(gen.base_supply(TimeInterval(0, kHorizon)));
  CommitmentLedger ledger_b(gen.base_supply(TimeInterval(0, kHorizon)));
  AdmissionService a(ledger_a, gen.phi(), ServiceConfig{});
  AdmissionService b(ledger_b, gen.phi(), ServiceConfig{});
  for (std::uint64_t i = 0; i < 3; ++i) a.admit(make_request(gen, i + 1, 0));
  for (std::uint64_t i = 0; i < 5; ++i) b.admit(make_request(gen, i + 1, 0));
  a.drain_and_stop();
  b.drain_and_stop();
  EXPECT_EQ(a.stats().counter("service.requests"), 3u);
  EXPECT_EQ(b.stats().counter("service.requests"), 5u);
  EXPECT_EQ(a.stats().histograms.at("service.planning_ns").count, 3u);
  EXPECT_EQ(b.stats().histograms.at("service.planning_ns").count, 5u);
}

// The service counts only into its own registry: with global metrics on, the
// kernel's plan.* instruments fill up but no service.* name appears.
TEST(ServiceMetrics, NothingIsMirroredIntoTheGlobalRegistry) {
  WorkloadGenerator gen = make_generator(25);
  CommitmentLedger ledger(gen.base_supply(TimeInterval(0, kHorizon)));
  obs::MetricsRegistry::global().reset();
  obs::enable_metrics(true);
  {
    AdmissionService svc(ledger, gen.phi(), ServiceConfig{});
    for (std::uint64_t i = 0; i < 4; ++i) svc.admit(make_request(gen, i + 1, 0));
    svc.drain_and_stop();
    EXPECT_EQ(svc.stats().counter("service.requests"), 4u);
  }
  obs::enable_metrics(false);
  const obs::MetricsSnapshot global = obs::MetricsRegistry::global().snapshot();
  EXPECT_GT(global.counter("plan.speculate.count"), 0u);
  const auto is_service = [](const auto& entry) {
    return entry.first.rfind("service.", 0) == 0;
  };
  EXPECT_FALSE(std::any_of(global.counters.begin(), global.counters.end(), is_service));
  EXPECT_FALSE(std::any_of(global.gauges.begin(), global.gauges.end(), is_service));
  EXPECT_FALSE(
      std::any_of(global.histograms.begin(), global.histograms.end(), is_service));
}

// ---- socket round trip ----------------------------------------------------

std::string test_socket_path(const char* tag) {
  return "/tmp/rota_svc_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

TEST(ServiceSocket, UnixRoundTripStreamsOutOfOrderDecisionsById) {
  WorkloadGenerator gen = make_generator(16);
  CommitmentLedger ledger(gen.base_supply(TimeInterval(0, kHorizon)));
  AdmissionService svc(ledger, gen.phi(), ServiceConfig{});
  ServerConfig sconfig;
  sconfig.unix_path = test_socket_path("unix");
  ServiceServer server(svc, sconfig);

  ServiceClient client = ServiceClient::connect_unix(server.unix_path());
  // Pipeline a burst, then collect by id: decisions may stream back in any
  // order (two lanes), every id must be answered exactly once. Generous
  // per-request budgets so the whole burst is decided, not budget-shed,
  // even on a slow (sanitized, single-core) host.
  const std::size_t n = 16;
  for (std::uint64_t i = 0; i < n; ++i) {
    client.send(make_request(gen, i + 1, static_cast<Tick>(i),
                             /*budget_us=*/10'000'000));
  }
  std::set<std::uint64_t> seen;
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    auto response = client.receive();
    ASSERT_TRUE(response.has_value());
    EXPECT_TRUE(seen.insert(response->id).second) << "duplicate " << response->id;
    EXPECT_GE(response->id, 1u);
    EXPECT_LE(response->id, n);
    if (response->verdict == Verdict::kAccepted) ++accepted;
    EXPECT_NE(response->verdict, Verdict::kOverloaded);
    EXPECT_FALSE(response->strategy.empty());
  }
  EXPECT_GT(accepted, 0u);
  server.stop();
}

TEST(ServiceSocket, TcpRoundTripAndEphemeralPort) {
  WorkloadGenerator gen = make_generator(17);
  CommitmentLedger ledger(gen.base_supply(TimeInterval(0, kHorizon)));
  AdmissionService svc(ledger, gen.phi(), ServiceConfig{});
  ServerConfig sconfig;
  sconfig.tcp = true;  // ephemeral port, no unix listener
  ServiceServer server(svc, sconfig);
  ASSERT_NE(server.tcp_port(), 0);

  ServiceClient client = ServiceClient::connect_tcp(server.tcp_port());
  const AdmitResponse response =
      client.call(make_request(gen, 7, 0, /*budget_us=*/10'000'000));
  EXPECT_EQ(response.id, 7u);
  EXPECT_NE(response.verdict, Verdict::kOverloaded);
  server.stop();
}

TEST(ServiceSocket, MalformedFrameGetsAProtocolErrorThenHangUp) {
  WorkloadGenerator gen = make_generator(18);
  CommitmentLedger ledger(gen.base_supply(TimeInterval(0, kHorizon)));
  AdmissionService svc(ledger, gen.phi(), ServiceConfig{});
  ServerConfig sconfig;
  sconfig.unix_path = test_socket_path("mal");
  ServiceServer server(svc, sconfig);

  // Raw socket: a well-framed but unparsable payload. The server must answer
  // an explicit rejection (id 0 — the frame carried no trustworthy id) with
  // a protocol-error reason, then hang up. Never a silent close.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                server.unix_path().c_str());
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string garbage = frame("this is not an admit request\n");
  ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), 0),
            static_cast<ssize_t>(garbage.size()));

  FrameReader reader;
  std::vector<std::string> payloads;
  char buf[512];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // the hang-up
    reader.feed(buf, static_cast<std::size_t>(n));
    while (auto p = reader.next()) payloads.push_back(*p);
  }
  ::close(fd);

  ASSERT_EQ(payloads.size(), 1u);
  const AdmitResponse response = parse_response(payloads.front());
  EXPECT_EQ(response.id, 0u);
  EXPECT_EQ(response.verdict, Verdict::kRejected);
  EXPECT_NE(response.reason.find("protocol error"), std::string::npos)
      << response.reason;
  server.stop();
}

TEST(ServiceSocket, StopDrainsInFlightRequestsBeforeClosing) {
  WorkloadGenerator gen = make_generator(19);
  CommitmentLedger ledger(gen.base_supply(TimeInterval(0, kHorizon)));
  ServiceConfig config;
  config.lanes = 1;
  config.queue_capacity = 64;
  AdmissionService svc(ledger, gen.phi(), config);
  ServerConfig sconfig;
  sconfig.unix_path = test_socket_path("drain");
  ServiceServer server(svc, sconfig);

  ServiceClient client = ServiceClient::connect_unix(server.unix_path());
  const std::size_t n = 24;
  for (std::uint64_t i = 0; i < n; ++i) {
    client.send(make_request(gen, i + 1, static_cast<Tick>(i)));
  }
  // Give the session thread a moment to move the burst into the service,
  // then stop: the drain must answer every accepted request before the
  // sockets close.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::thread stopper([&] { server.stop(); });
  std::size_t answered = 0;
  while (auto response = client.receive()) {
    ++answered;
    EXPECT_GE(response->id, 1u);
  }
  stopper.join();
  EXPECT_EQ(answered, n) << "stop() abandoned queued requests";
  EXPECT_EQ(svc.stats().counter("service.requests"), n);
}

// ---- session tokens & client bounds ---------------------------------------

TEST(ServiceAuth, SecretAdmitsMatchingTokenAndRefusesTheRest) {
  WorkloadGenerator gen = make_generator(20);
  CommitmentLedger ledger(gen.base_supply(TimeInterval(0, kHorizon)));
  AdmissionService svc(ledger, gen.phi(), ServiceConfig{});
  ServerConfig sconfig;
  sconfig.unix_path = test_socket_path("auth");
  sconfig.secret = "sesame";
  ServiceServer server(svc, sconfig);

  // The right token: hello → ok, then requests flow normally.
  ClientOptions good;
  good.token = "sesame";
  good.connect_timeout_ms = 2000;
  ServiceClient authed = ServiceClient::connect_unix(server.unix_path(), good);
  const AdmitResponse response =
      authed.call(make_request(gen, 1, 0, /*budget_us=*/10'000'000));
  EXPECT_EQ(response.id, 1u);
  EXPECT_NE(response.verdict, Verdict::kOverloaded);

  // A wrong token: the hello is answered with an explicit error and a
  // hang-up, which the connecting factory surfaces as a refusal.
  ClientOptions bad = good;
  bad.token = "wrong";
  EXPECT_THROW(ServiceClient::connect_unix(server.unix_path(), bad),
               std::runtime_error);

  // No token at all: the connection opens (nothing to refuse yet), but the
  // first request is answered with an unauthorized protocol error, then EOF.
  ServiceClient anon = ServiceClient::connect_unix(server.unix_path());
  anon.send(make_request(gen, 2, 0));
  auto refused = anon.receive();
  ASSERT_TRUE(refused.has_value());
  EXPECT_EQ(refused->verdict, Verdict::kRejected);
  EXPECT_NE(refused->reason.find("unauthorized"), std::string::npos)
      << refused->reason;
  EXPECT_EQ(anon.receive(), std::nullopt) << "server hung up after refusing";
  server.stop();
}

TEST(ServiceClientBounds, ReadTimeoutThrowsAndTheStreamSurvives) {
  WorkloadGenerator gen = make_generator(21);
  CommitmentLedger ledger(gen.base_supply(TimeInterval(0, kHorizon)));
  ServiceConfig config;
  config.lanes = 1;
  AdmissionService svc(ledger, gen.phi(), config);
  auto latched = std::make_unique<LatchedExact>(PlanningKernel{});
  LatchedExact* latch = latched.get();
  svc.registry().replace(StrategyKind::kExact, std::move(latched));
  ServerConfig sconfig;
  sconfig.unix_path = test_socket_path("timeout");
  ServiceServer server(svc, sconfig);

  ClientOptions options;
  options.read_timeout_ms = 100;
  ServiceClient client = ServiceClient::connect_unix(server.unix_path(), options);
  client.send(make_request(gen, 1, 0, /*budget_us=*/10'000'000));
  latch->await_entered();  // the lane is held: no decision is coming yet
  EXPECT_THROW(client.receive(), std::system_error)
      << "a held decision must bound receive(), not block it forever";
  // The timeout is a bound, not a teardown: release the lane and the same
  // connection still delivers the decision.
  latch->release();
  auto response = client.receive();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->id, 1u);
  server.stop();
}

TEST(ServiceClientBounds, SendRedialsExactlyOnceAfterAServerRestart) {
  WorkloadGenerator gen = make_generator(22);
  const std::string path = test_socket_path("redial");
  CommitmentLedger first_ledger(gen.base_supply(TimeInterval(0, kHorizon)));
  auto first_service = std::make_unique<AdmissionService>(
      first_ledger, gen.phi(), ServiceConfig{});
  ServerConfig sconfig;
  sconfig.unix_path = path;
  auto first_server = std::make_unique<ServiceServer>(*first_service, sconfig);

  ServiceClient client = ServiceClient::connect_unix(path);
  EXPECT_NE(client.call(make_request(gen, 1, 0, /*budget_us=*/10'000'000)).verdict,
            Verdict::kOverloaded);
  EXPECT_EQ(client.reconnects(), 0u);

  // Restart: the old sockets die, a new daemon binds the same path. The next
  // send() hits the dead socket, re-dials once, and the request is served by
  // the new server.
  first_server.reset();
  first_service.reset();
  CommitmentLedger second_ledger(gen.base_supply(TimeInterval(0, kHorizon)));
  AdmissionService second_service(second_ledger, gen.phi(), ServiceConfig{});
  ServiceServer second_server(second_service, sconfig);

  client.send(make_request(gen, 2, 0, /*budget_us=*/10'000'000));
  auto response = client.receive();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->id, 2u);
  EXPECT_EQ(client.reconnects(), 1u) << "exactly one bounded reconnect";
  second_server.stop();
}

TEST(ServiceClientBounds, PipelinedStormAcrossARestartRedialsExactlyOnce) {
  // The retry-storm shape: a pipelining client with requests in flight when
  // the daemon restarts. Contract under fire: (a) every pre-restart request
  // resolves — a drained decision or a clean EOF, never a silent drop and
  // never a hang; (b) the redial happens exactly once, no matter how many
  // sends pile onto the dead socket afterwards.
  WorkloadGenerator gen = make_generator(24);
  const std::string path = test_socket_path("storm");
  CommitmentLedger first_ledger(gen.base_supply(TimeInterval(0, kHorizon)));
  auto first_service = std::make_unique<AdmissionService>(
      first_ledger, gen.phi(), ServiceConfig{});
  ServerConfig sconfig;
  sconfig.unix_path = path;
  auto first_server = std::make_unique<ServiceServer>(*first_service, sconfig);

  ServiceClient client = ServiceClient::connect_unix(path);
  // Pipeline a burst and leave the last decision unread when the server dies.
  // Two lanes stream decisions in completion order, so which one is left
  // unread is up to the scheduler.
  std::set<std::uint64_t> unread{1, 2, 3};
  for (std::uint64_t id : unread) {
    client.send(make_request(gen, id, 0, /*budget_us=*/10'000'000));
  }
  for (int i = 0; i < 2; ++i) {
    const auto response = client.receive();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(unread.erase(response->id), 1u) << "id " << response->id;
  }
  first_server.reset();  // drains in-flight work, then closes the sockets
  first_service.reset();

  // The drained decision is still in the stream, then EOF surfaces as an
  // explicit nullopt — the pre-restart request is never silently dropped.
  auto drained = client.receive();
  ASSERT_TRUE(drained.has_value());
  ASSERT_EQ(unread.size(), 1u);
  EXPECT_EQ(drained->id, *unread.begin());
  EXPECT_EQ(client.receive(), std::nullopt) << "EOF must be reported";
  EXPECT_EQ(client.reconnects(), 0u);

  // New daemon, same path. The storm: six sends pile up, the first one hits
  // the dead socket and redials, the rest ride the replacement connection.
  CommitmentLedger second_ledger(gen.base_supply(TimeInterval(0, kHorizon)));
  AdmissionService second_service(second_ledger, gen.phi(), ServiceConfig{});
  ServiceServer second_server(second_service, sconfig);
  for (std::uint64_t id = 10; id < 16; ++id) {
    client.send(make_request(gen, id, 0, /*budget_us=*/10'000'000));
  }
  std::size_t answered = 0;
  for (int i = 0; i < 6; ++i) {
    const auto response = client.receive();
    ASSERT_TRUE(response.has_value());
    EXPECT_GE(response->id, 10u);
    EXPECT_LT(response->id, 16u);
    ++answered;
  }
  EXPECT_EQ(answered, 6u);
  EXPECT_EQ(client.reconnects(), 1u)
      << "one restart, one redial — the storm must not multiply reconnects";
  second_server.stop();
}

TEST(ServiceClientBounds, ReconnectDisabledSurfacesTheDeadSocket) {
  WorkloadGenerator gen = make_generator(23);
  const std::string path = test_socket_path("noredial");
  CommitmentLedger ledger(gen.base_supply(TimeInterval(0, kHorizon)));
  auto svc = std::make_unique<AdmissionService>(ledger, gen.phi(), ServiceConfig{});
  ServerConfig sconfig;
  sconfig.unix_path = path;
  auto server = std::make_unique<ServiceServer>(*svc, sconfig);

  ClientOptions options;
  options.reconnect = false;
  ServiceClient client = ServiceClient::connect_unix(path, options);
  server.reset();
  svc.reset();
  EXPECT_THROW(client.send(make_request(gen, 1, 0)), std::system_error);
  EXPECT_EQ(client.reconnects(), 0u);
}

}  // namespace
}  // namespace rota::service
