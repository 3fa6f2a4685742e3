// The admission service: codec, bounded queue, budget and queue-bound
// shedding, clean drain, the socket round trip and its session lifecycle.
//
// The load-bearing checks: a service fed in arrival order decides every
// request exactly as the sequential referee (RotaAdmissionController) does,
// at any lane count; a full queue and an expired planning budget are
// answered with kOverloaded — never silence; and a long-lived server frees
// each closed session's descriptor and keeps accepting when descriptors run
// out. Runs in rota_runtime_tests, so ThreadSanitizer covers the
// dispatcher/lanes/session interleavings.
#include "rota/service/service.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
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
#include <optional>
#include <set>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "fd_helpers.hpp"
#include "rota/admission/controller.hpp"
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
  r.strategy = "exact";
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

// ---- served path vs the sequential referee --------------------------------

// Requests submitted in arrival order from one thread, every one before any
// answer is awaited, with a queue that holds them all and a budget no request
// exhausts: the service decides in FCFS rounds, so at any lane count every
// verdict and the final admission count must match the sequential
// controller's on a ledger built from the same supply.
TEST(ServiceParity, ServedDecisionsAreFcfsAtAnyLaneCount) {
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    for (const std::uint64_t seed : {31u, 32u, 33u}) {
      WorkloadConfig wc;
      wc.seed = seed;
      wc.num_locations = 3;
      wc.laxity = 1.5;           // tight windows: many rejections
      wc.mean_interarrival = 2;  // dense arrivals: contended residual
      WorkloadGenerator gen(wc, CostModel{});
      const ResourceSet supply = gen.base_supply(TimeInterval(0, kHorizon));
      const std::vector<Arrival> arrivals = gen.make_arrivals(kHorizon);
      RotaAdmissionController referee(gen.phi(), supply);
      CommitmentLedger ledger(supply);
      ServiceConfig config;
      config.lanes = lanes;
      config.queue_capacity = arrivals.size() + 1;
      AdmissionService svc(ledger, gen.phi(), config);

      std::vector<std::future<AdmitResponse>> answers;
      answers.reserve(arrivals.size());
      for (std::size_t i = 0; i < arrivals.size(); ++i) {
        AdmitRequest request;
        request.id = i + 1;
        request.at = arrivals[i].at;
        request.budget_us = 60'000'000;
        request.computation = arrivals[i].computation;
        auto answer = std::make_shared<std::promise<AdmitResponse>>();
        answers.push_back(answer->get_future());
        svc.submit(std::move(request),
                   [answer](const AdmitResponse& r) { answer->set_value(r); });
      }

      std::size_t accepted = 0, mismatches = 0;
      for (std::size_t i = 0; i < arrivals.size(); ++i) {
        const AdmitResponse served = answers[i].get();
        const AdmissionDecision expected =
            referee.request(arrivals[i].computation, arrivals[i].at);
        ASSERT_NE(served.verdict, Verdict::kOverloaded)
            << "lanes " << lanes << " seed " << seed << " #" << i;
        if ((served.verdict == Verdict::kAccepted) != expected.accepted) ++mismatches;
        accepted += expected.accepted;
      }
      svc.drain_and_stop();
      EXPECT_EQ(mismatches, 0u) << "lanes " << lanes << " seed " << seed;
      EXPECT_EQ(ledger.admitted_count(), referee.ledger().admitted_count())
          << "lanes " << lanes << " seed " << seed;
      // The workload must be contended, or parity proves little.
      EXPECT_GT(accepted, 0u) << "seed " << seed;
      EXPECT_LT(accepted, arrivals.size()) << "seed " << seed;
    }
  }
}

// ---- shedding & drain -----------------------------------------------------

/// Waits until `submitted` requests have entered `svc` and left its queue.
/// With the ledger mutex held by the caller, the dispatcher that took one is
/// blocked before its round: this is how a test holds the service mid-round.
void await_dequeued(const AdmissionService& svc, std::uint64_t submitted) {
  while (svc.stats().counter("service.requests") < submitted ||
         svc.queue_depth() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(ServiceShedding, QueueFullAnswersOverloadedImmediatelyNeverSilence) {
  WorkloadGenerator gen = make_generator(14);
  CommitmentLedger ledger(gen.base_supply(TimeInterval(0, kHorizon)));
  ServiceConfig config;
  config.lanes = 1;
  config.queue_capacity = 1;
  AdmissionService svc(ledger, gen.phi(), config);

  std::mutex mutex;
  std::vector<AdmitResponse> responses;
  const auto collect = [&](const AdmitResponse& r) {
    std::lock_guard<std::mutex> lock(mutex);
    responses.push_back(r);
  };

  std::unique_lock<std::mutex> held(svc.ledger_mutex());
  svc.submit(make_request(gen, 1, 0, /*budget_us=*/10'000'000), collect);
  await_dequeued(svc, 1);                        // the dispatcher is held
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
  held.unlock();
  svc.drain_and_stop();
  std::lock_guard<std::mutex> lock(mutex);
  EXPECT_EQ(responses.size(), 6u) << "every submitted request was answered";
  EXPECT_EQ(svc.stats().counter("service.shed_queue"), 4u);
}

// A request that waits behind a held round longer than its planning budget is
// shed with kOverloaded when a round reaches it — answered, not decided late.
TEST(ServiceShedding, BudgetSpentInTheQueueShedsWithAReason) {
  WorkloadGenerator gen = make_generator(17);
  CommitmentLedger ledger(gen.base_supply(TimeInterval(0, kHorizon)));
  ServiceConfig config;
  config.lanes = 1;
  AdmissionService svc(ledger, gen.phi(), config);

  std::promise<AdmitResponse> first, second;
  std::future<AdmitResponse> first_answer = first.get_future();
  std::future<AdmitResponse> second_answer = second.get_future();
  std::unique_lock<std::mutex> held(svc.ledger_mutex());
  svc.submit(make_request(gen, 1, 0, /*budget_us=*/10'000'000),
             [&first](const AdmitResponse& r) { first.set_value(r); });
  await_dequeued(svc, 1);  // the dispatcher is held
  svc.submit(make_request(gen, 2, 1, /*budget_us=*/1'000),
             [&second](const AdmitResponse& r) { second.set_value(r); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // > its 1 ms budget
  held.unlock();

  EXPECT_NE(first_answer.get().verdict, Verdict::kOverloaded);
  const AdmitResponse late = second_answer.get();
  EXPECT_EQ(late.id, 2u);
  EXPECT_EQ(late.verdict, Verdict::kOverloaded);
  EXPECT_EQ(late.reason, "planning budget exhausted");
  EXPECT_TRUE(late.strategy.empty()) << "a shed names no strategy";
  svc.drain_and_stop();
  EXPECT_EQ(svc.stats().counter("service.shed_budget"), 1u);
}

// `lanes` counts the threads that plan, the dispatcher included: zero is a
// misconfiguration, refused at construction rather than silently rounded.
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
// four outcomes.
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

// ---- session lifecycle ----------------------------------------------------

using rota::testing::open_fds;
using rota::testing::ScopedFdLimit;

/// One short session: connect, one round trip, close. False when the server
/// did not answer it (the dial failed, or nothing came back in time).
bool short_session(const std::string& path, WorkloadGenerator& gen, std::uint64_t id) {
  ClientOptions options;
  options.connect_timeout_ms = 2000;
  options.read_timeout_ms = 2000;
  options.reconnect = false;
  try {
    ServiceClient client = ServiceClient::connect_unix(path, options);
    return client.call(make_request(gen, id, 0, /*budget_us=*/10'000'000)).id == id;
  } catch (const std::exception&) {
    return false;
  }
}

// A daemon that serves many short-lived clients must not keep their sockets:
// once a client has closed and been answered, its descriptor is given back.
TEST(ServiceSessions, ClosedSessionsGiveBackTheirDescriptors) {
  WorkloadGenerator gen = make_generator(26);
  CommitmentLedger ledger(gen.base_supply(TimeInterval(0, kHorizon)));
  AdmissionService svc(ledger, gen.phi(), ServiceConfig{});
  ServerConfig sconfig;
  sconfig.unix_path = test_socket_path("reap");
  ServiceServer server(svc, sconfig);

  const std::size_t before = open_fds();
  for (std::uint64_t id = 1; id <= 200; ++id) {
    ASSERT_TRUE(short_session(server.unix_path(), gen, id)) << "session " << id;
  }
  // A reader may still be retiring the last session or two; a leak would
  // leave all 200.
  EXPECT_LE(open_fds(), before + 8);
  EXPECT_EQ(server.sessions_accepted(), 200u);
  server.stop();
}

// Under a descriptor limit, sequential short sessions keep being answered
// long past the limit, and after accept() has failed with EMFILE a new
// client is answered once descriptors free up: the acceptor never goes
// silent.
TEST(ServiceSessions, AcceptorOutlivesTheDescriptorLimit) {
  WorkloadGenerator gen = make_generator(27);
  CommitmentLedger ledger(gen.base_supply(TimeInterval(0, kHorizon)));
  AdmissionService svc(ledger, gen.phi(), ServiceConfig{});
  ServerConfig sconfig;
  sconfig.unix_path = test_socket_path("emfile");
  ServiceServer server(svc, sconfig);

  const rlim_t limit = open_fds() + 16;
  ScopedFdLimit scoped(limit);
  ASSERT_TRUE(scoped.ok());
  std::uint64_t answered = 0;
  while (answered < 4 * limit && short_session(server.unix_path(), gen, answered + 1)) {
    ++answered;
  }
  EXPECT_EQ(answered, 4 * limit) << "sessions stopped being answered";

  // Now run the acceptor out of descriptors. Fill the table but for one slot. The acceptor blocked in accept() already
  // holds a descriptor for its next connection, so client D takes the free
  // slot and is still accepted; the acceptor's next accept() then fails with
  // EMFILE for as long as the table stays full.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // readers retire
  std::vector<int> fillers;
  for (int fd; (fd = ::open("/dev/null", O_RDONLY)) >= 0;) fillers.push_back(fd);
  ASSERT_FALSE(fillers.empty());
  ::close(fillers.back());
  fillers.pop_back();
  ClientOptions options;
  options.read_timeout_ms = 2000;
  options.reconnect = false;
  try {
    ServiceClient d = ServiceClient::connect_unix(server.unix_path(), options);
    EXPECT_EQ(d.call(make_request(gen, 999, 0, /*budget_us=*/10'000'000)).id, 999u);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));  // EMFILE spins
  } catch (const std::exception& e) {
    ADD_FAILURE() << "session on the last free descriptor: " << e.what();
  }
  for (const int fd : fillers) ::close(fd);
  EXPECT_TRUE(short_session(server.unix_path(), gen, 1000))
      << "the acceptor went silent after running out of descriptors";
  server.stop();
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
  ServerConfig sconfig;
  sconfig.unix_path = test_socket_path("timeout");
  ServiceServer server(svc, sconfig);

  ClientOptions options;
  options.read_timeout_ms = 100;
  ServiceClient client = ServiceClient::connect_unix(server.unix_path(), options);
  std::unique_lock<std::mutex> held(svc.ledger_mutex());
  client.send(make_request(gen, 1, 0, /*budget_us=*/10'000'000));
  await_dequeued(svc, 1);  // the lane is held: no decision is coming yet
  EXPECT_THROW(client.receive(), std::system_error)
      << "a held decision must bound receive(), not block it forever";
  // The timeout is a bound, not a teardown: release the lane and the same
  // connection still delivers the decision.
  held.unlock();
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
