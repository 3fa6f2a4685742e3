// The transport spine: versioned wire codec round-trips, QueueTransport
// semantics, and SocketTransport over real unix sockets (handshake, auth
// refusal, message flow, backlog-until-reachable, clean close) and its
// session lifecycle under peer churn (reaping, descriptor exhaustion, a
// silent connection, a peer that never answers the hello).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "fd_helpers.hpp"
#include "rota/net/socket_transport.hpp"
#include "rota/net/sockets.hpp"
#include "rota/net/transport.hpp"
#include "rota/net/wire.hpp"

namespace rota::net {
namespace {

using cluster::Message;
using cluster::MsgKind;
using cluster::SupplyDigest;

Message probe_message() {
  Message m;
  m.kind = MsgKind::kProbe;
  m.from = 0;
  m.to = 1;
  m.job = 42;
  m.work.actor = "hot-actor";
  m.work.home = Location("wire-l1");
  m.work.chunk_weights = {3, 5, 2};
  m.work.state_size = 7;
  m.work.earliest_start = 10;
  m.work.deadline = 60;
  return m;
}

Message digest_message() {
  Message m;
  m.kind = MsgKind::kDigest;
  m.from = 2;
  m.to = 0;
  m.work.chunk_weights = {1};  // decode requires a work section; content moot
  m.digest.site = Location("wire-l2");
  m.digest.revision = 9;
  m.digest.as_of = 33;
  m.digest.free.add(4, TimeInterval(0, 100),
                    LocatedType::node(ResourceKind::kCpu, Location("wire-l2")));
  m.digest.free.add(2, TimeInterval(5, 50),
                    LocatedType::link(ResourceKind::kNetwork, Location("wire-l2"),
                                      Location("wire-l1")));
  return m;
}

TEST(WireCodec, ProbeRoundTrips) {
  const Message m = probe_message();
  const std::string payload = encode_message(m);
  EXPECT_TRUE(is_message_payload(payload));
  EXPECT_EQ(decode_message(payload), m);
}

TEST(WireCodec, DigestWithTermsRoundTrips) {
  const Message m = digest_message();
  EXPECT_EQ(decode_message(encode_message(m)), m);
}

TEST(WireCodec, EveryKindAndNoteRoundTrips) {
  for (const MsgKind kind :
       {MsgKind::kProbe, MsgKind::kOffer, MsgKind::kNack, MsgKind::kClaim,
        MsgKind::kClaimAck, MsgKind::kClaimReject, MsgKind::kDigest}) {
    Message m = probe_message();
    m.kind = kind;
    m.finish = 55;
    m.note = "residual-moved";
    EXPECT_EQ(decode_message(encode_message(m)), m)
        << cluster::msg_kind_name(kind);
  }
}

TEST(WireCodec, NowhereLocationRoundTripsWithoutMintingAnId) {
  Message m = probe_message();
  m.work.home = Location();  // the interned id-0 "nowhere" location
  const Message back = decode_message(encode_message(m));
  EXPECT_EQ(back.work.home.id(), 0u);
  EXPECT_EQ(back, m);
}

TEST(WireCodec, MalformedPayloadsThrow) {
  EXPECT_THROW(decode_message(""), CodecError);
  EXPECT_THROW(decode_message("rotamsg"), CodecError);
  // Version from the future.
  EXPECT_THROW(decode_message("rotamsg 2 probe 0 1 42 0\n"
                              "work a - 1 0 10 1 1\n"
                              "digest - 0 0 0\n"),
               CodecError);
  // Announced chunk count disagrees with the payload.
  EXPECT_THROW(decode_message("rotamsg 1 probe 0 1 42 0\n"
                              "work a - 1 0 10 3 1\n"
                              "digest - 0 0 0\n"),
               CodecError);
  // Term outside its digest's announced count.
  EXPECT_THROW(decode_message("rotamsg 1 probe 0 1 42 0\n"
                              "work a - 1 0 10 1 1\n"
                              "digest - 0 0 0\n"
                              "term cpu x x 1 0 10\n"),
               CodecError);
  // Missing sections.
  EXPECT_THROW(decode_message("rotamsg 1 probe 0 1 42 0\n"), CodecError);
  // A note that is not a single line refuses to encode.
  Message m = probe_message();
  m.note = "two\nlines";
  EXPECT_THROW(encode_message(m), CodecError);
}

TEST(WireCodec, HelloRoundTripsAndValidates) {
  const Hello h{3, "sesame"};
  const std::string payload = encode_hello(h);
  EXPECT_TRUE(is_hello_payload(payload));
  EXPECT_EQ(decode_hello(payload), h);

  const Hello open{7, ""};
  EXPECT_EQ(decode_hello(encode_hello(open)), open);

  EXPECT_THROW(decode_hello("hello 1 3"), CodecError);
  EXPECT_THROW(decode_hello("hello 2 3 tok"), CodecError);
  EXPECT_THROW(encode_hello(Hello{1, "has space"}), CodecError);
}

TEST(QueueTransport, StagesSendsAndDrainsInbox) {
  QueueTransport t(/*local=*/4);
  EXPECT_EQ(t.local(), 4u);
  t.set_now(12);
  EXPECT_EQ(t.now(), 12);

  t.send(probe_message());
  t.send(digest_message());
  EXPECT_TRUE(t.receive().empty());
  const std::vector<Message> sent = t.drain_sent();
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_EQ(sent[0].kind, MsgKind::kProbe);
  EXPECT_TRUE(t.drain_sent().empty());

  t.deliver(probe_message());
  const std::vector<Message> got = t.receive();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], probe_message());
  EXPECT_TRUE(t.receive().empty());

  t.send(probe_message());
  t.drop_pending();
  EXPECT_TRUE(t.drain_sent().empty());
}

std::string temp_socket_path(const char* tag) {
  return "/tmp/rota_transport_test_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

/// Polls receive() until `n` messages arrived or ~2s elapsed.
std::vector<Message> await_messages(SocketTransport& t, std::size_t n) {
  std::vector<Message> got;
  for (int spin = 0; spin < 200 && got.size() < n; ++spin) {
    for (Message& m : t.receive()) got.push_back(std::move(m));
    if (got.size() < n) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  return got;
}

TEST(SocketTransport, DeliversMessagesBetweenPeersOverUnixSockets) {
  const std::string path_a = temp_socket_path("a");
  const std::string path_b = temp_socket_path("b");

  SocketTransportConfig ca;
  ca.local = 0;
  ca.listen = "unix:" + path_a;
  ca.peers[1] = "unix:" + path_b;
  SocketTransportConfig cb;
  cb.local = 1;
  cb.listen = "unix:" + path_b;
  cb.peers[0] = "unix:" + path_a;

  SocketTransport a(ca);
  SocketTransport b(cb);

  Message probe = probe_message();  // 0 -> 1
  a.send(probe);
  Message reply = probe_message();
  reply.kind = MsgKind::kOffer;
  reply.from = 1;
  reply.to = 0;
  reply.finish = 44;
  b.send(reply);

  const std::vector<Message> at_b = await_messages(b, 1);
  ASSERT_EQ(at_b.size(), 1u);
  EXPECT_EQ(at_b[0], probe);
  const std::vector<Message> at_a = await_messages(a, 1);
  ASSERT_EQ(at_a.size(), 1u);
  EXPECT_EQ(at_a[0], reply);

  a.close();
  b.close();
}

TEST(SocketTransport, SharedSecretAdmitsMatchAndRefusesMismatch) {
  const std::string path = temp_socket_path("auth");

  SocketTransportConfig listener;
  listener.local = 0;
  listener.listen = "unix:" + path;
  listener.secret = "sesame";
  SocketTransport srv(listener);

  // Matching secret: messages flow.
  SocketTransportConfig good;
  good.local = 1;
  good.peers[0] = "unix:" + path;
  good.secret = "sesame";
  SocketTransport ok_peer(good);
  Message hello_probe = probe_message();
  hello_probe.from = 1;
  hello_probe.to = 0;
  ok_peer.send(hello_probe);
  EXPECT_EQ(await_messages(srv, 1).size(), 1u);

  // Wrong secret: the hello is answered with an error and hung up on; the
  // message is dropped, never delivered.
  SocketTransportConfig bad;
  bad.local = 2;
  bad.peers[0] = "unix:" + path;
  bad.secret = "wrong";
  bad.connect_timeout_ms = 200;
  SocketTransport bad_peer(bad);
  Message m = probe_message();
  m.from = 2;
  m.to = 0;
  bad_peer.send(m);
  EXPECT_TRUE(await_messages(srv, 1).empty());

  ok_peer.close();
  bad_peer.close();
  srv.close();
}

// Daemons come up in some order: frames sent before the peer's listener is
// bound wait in the bounded backlog and flush, in order, on the reconnect
// the next send triggers. A one-shot probe round must not silently lose its
// probes to a startup race.
TEST(SocketTransport, BacklogSentBeforeThePeerBindsFlushesOnReconnect) {
  const std::string path = temp_socket_path("late_bind");
  SocketTransportConfig c;
  c.local = 0;
  c.peers[1] = "unix:" + path;
  c.connect_timeout_ms = 200;
  c.reconnect_backoff_ms = 25;
  SocketTransport sender(c);

  Message first = probe_message();
  first.job = 1;
  sender.send(first);  // no listener yet: queued, and the backoff starts

  SocketTransportConfig l;
  l.local = 1;
  l.listen = "unix:" + path;
  SocketTransport receiver(l);

  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // past backoff
  Message second = probe_message();
  second.job = 2;
  sender.send(second);  // reconnects, flushes the backlog, then sends

  const std::vector<Message> got = await_messages(receiver, 2);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].job, 1u);
  EXPECT_EQ(got[1].job, 2u);
  sender.close();
  receiver.close();
}

TEST(SocketTransport, UnreachablePeerDropsInsteadOfBlocking) {
  SocketTransportConfig c;
  c.local = 0;
  c.peers[1] = "unix:/tmp/rota_transport_test_nobody_home.sock";
  c.connect_timeout_ms = 100;
  SocketTransport t(c);

  const auto start = std::chrono::steady_clock::now();
  t.send(probe_message());  // no listener: dropped
  Message unknown = probe_message();
  unknown.to = 9;  // never configured: dropped
  t.send(unknown);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
            2000);
  EXPECT_TRUE(t.receive().empty());
  t.close();
}

TEST(SocketTransport, NowAdvancesOnTheConfiguredTick) {
  SocketTransportConfig c;
  c.local = 0;
  c.tick_ms = 5;
  SocketTransport t(c);
  const Tick before = t.now();
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_GE(t.now(), before + 4);
  t.close();
}

TEST(SocketTransport, CloseIsIdempotentAndStopsDelivery) {
  const std::string path = temp_socket_path("close");
  SocketTransportConfig c;
  c.local = 0;
  c.listen = "unix:" + path;
  SocketTransport t(c);
  t.close();
  t.close();
  EXPECT_TRUE(t.receive().empty());
}

// ---- session lifecycle under peer churn ------------------------------------

using rota::testing::open_fds;
using rota::testing::ScopedFdLimit;

/// A peer that dials `listen_path` as node `id` and sends one probe.
void send_one_probe(const std::string& listen_path, cluster::NodeId id) {
  SocketTransportConfig c;
  c.local = id;
  c.peers[0] = "unix:" + listen_path;
  c.connect_timeout_ms = 2000;
  SocketTransport peer(c);
  Message m = probe_message();
  m.from = id;
  m.to = 0;
  m.job = id;
  peer.send(m);
  peer.close();
}

SocketTransportConfig listener_config(const std::string& path) {
  SocketTransportConfig c;
  c.local = 0;
  c.listen = "unix:" + path;
  return c;
}

// Peers come and go (a restart reconnects): once a peer has closed, the
// session it opened gives its descriptor back.
TEST(SocketTransport, ReconnectingPeersGiveBackTheirDescriptors) {
  const std::string path = temp_socket_path("reap");
  SocketTransport listener(listener_config(path));

  const std::size_t before = open_fds();
  for (cluster::NodeId id = 1; id <= 100; ++id) {
    send_one_probe(path, id);
    const std::vector<Message> got = await_messages(listener, 1);
    ASSERT_EQ(got.size(), 1u) << "peer " << id;
    EXPECT_EQ(got[0].from, id);
  }
  // The last reader or two may still be retiring; a leak keeps all 100.
  for (int spin = 0; spin < 100 && open_fds() > before + 8; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_LE(open_fds(), before + 8);
  listener.close();
}

// After accept() has failed with EMFILE, a peer that connects once
// descriptors free up is still served: the acceptor never goes silent.
TEST(SocketTransport, AcceptorOutlivesTheDescriptorLimit) {
  const std::string path = temp_socket_path("emfile");
  SocketTransport listener(listener_config(path));
  send_one_probe(path, 1);  // the acceptor is up and back in accept()
  ASSERT_EQ(await_messages(listener, 1).size(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  ScopedFdLimit scoped(open_fds() + 16);
  ASSERT_TRUE(scoped.ok());
  // Fill the table but for one slot. The acceptor blocked in accept()
  // already holds a descriptor for its next connection, so the first peer
  // takes the free slot and is still accepted; the acceptor's next accept()
  // then fails with EMFILE for as long as the table stays full.
  std::vector<int> fillers;
  for (int fd; (fd = ::open("/dev/null", O_RDONLY)) >= 0;) fillers.push_back(fd);
  ASSERT_FALSE(fillers.empty());
  ::close(fillers.back());
  fillers.pop_back();
  send_one_probe(path, 2);
  EXPECT_EQ(await_messages(listener, 1).size(), 1u)
      << "the peer on the last free descriptor";
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // EMFILE spins

  for (const int fd : fillers) ::close(fd);
  send_one_probe(path, 3);
  const std::vector<Message> got = await_messages(listener, 1);
  ASSERT_EQ(got.size(), 1u)
      << "the acceptor went silent after running out of descriptors";
  EXPECT_EQ(got[0].from, 3u);
  listener.close();
}

// The hello is read on the session's own thread: a connection that never
// sends one delays no other peer, even under a long hello timeout.
TEST(SocketTransport, SilentConnectionDoesNotStallOtherPeers) {
  const std::string path = temp_socket_path("silent");
  SocketTransportConfig c = listener_config(path);
  c.connect_timeout_ms = 2000;
  SocketTransport listener(c);

  const int silent = dial(Endpoint{path, 0}, 1000);  // no hello, ever
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // accepted

  SocketTransportConfig pc;
  pc.local = 1;
  pc.peers[0] = "unix:" + path;
  SocketTransport peer(pc);
  const auto start = std::chrono::steady_clock::now();
  Message m = probe_message();
  m.from = 1;
  m.to = 0;
  peer.send(m);
  std::vector<Message> got;
  while (got.empty() && std::chrono::steady_clock::now() - start <
                            std::chrono::seconds(1)) {
    got = listener.receive();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(got.size(), 1u) << "a silent connection stalled another peer";
  ::close(silent);
  peer.close();
  listener.close();
}

// Each peer's outbound side has its own lock: a peer that accepts
// connections but never answers the hello holds up only the sends to itself.
TEST(SocketTransport, MutePeerDoesNotStallOtherPeers) {
  const std::string mute_path = temp_socket_path("mute");
  std::uint16_t unused_port = 0;
  const int mute = listen_on(Endpoint{mute_path, 0}, unused_port);  // never accepts

  SocketTransportConfig lc;
  lc.local = 2;
  lc.listen = "unix:" + temp_socket_path("live");
  SocketTransport live(lc);

  SocketTransportConfig c;
  c.local = 0;
  c.peers[1] = "unix:" + mute_path;
  c.peers[2] = lc.listen;
  c.connect_timeout_ms = 1000;
  SocketTransport sender(c);

  std::thread dialing_mute([&] { sender.send(probe_message()); });  // 0 -> 1
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // awaiting the hello

  Message m = probe_message();
  m.to = 2;
  const auto start = std::chrono::steady_clock::now();
  sender.send(m);
  std::vector<Message> got;
  while (got.empty() && std::chrono::steady_clock::now() - start <
                            std::chrono::milliseconds(300)) {
    got = live.receive();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(got.size(), 1u) << "a mute peer's dial stalled a send to another peer";
  dialing_mute.join();
  ::close(mute);
  ::unlink(mute_path.c_str());
  sender.close();
  live.close();
}

}  // namespace
}  // namespace rota::net
