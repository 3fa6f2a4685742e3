// SocketTransport: the live Transport — cluster messages over real sockets.
//
// Each daemon runs one SocketTransport. It listens on a unix path or a
// loopback TCP port, keeps one persistent outbound connection per configured
// peer, and moves cluster::Message values as wire-encoded text payloads
// (rota/net/wire.hpp) inside the admission service's length-prefixed frames
// (rota/net/frame.hpp). Listening, dialing and framed reads are the socket
// session layer the admission daemon's front door shares (rota/net/session.hpp,
// rota/net/sockets.hpp); the transport adds only its session handler and its
// outbound backlog.
//
// Session open: the connecting side sends `hello 1 <node_id> <token|->` as
// its first frame. The listener reads it on the session's own thread within
// `connect_timeout_ms` (a silent connection is hung up on and stalls no other
// peer) and checks the token when a shared secret is configured — a wrong
// token is answered with a framed `err unauthorized` and a hang-up (and
// counts transport.auth_failures); a good hello gets a framed `ok` and the
// connection becomes a one-way message stream from that peer. A peer that
// closes its connection (say, to reconnect after a restart) retires its
// session and gives its descriptor back.
//
// Loss model: sends are eager. A mid-write failure or a peer with no
// configured address drops the message — the same first-class loss the
// fabric simulates — and a dead peer schedules a reconnect attempt with a
// bounded backoff. While a peer is unreachable, up to `backlog_frames`
// outbound frames are queued (oldest dropped beyond that) and flushed, in
// order, on the next successful connect: daemons come up in some order, and
// a one-shot protocol send (a probe round) must survive racing the peer's
// bind without waiting out a full round-trip timeout. The cluster
// protocol's probe/claim timeouts and retries remain the recovery story for
// everything past that bounded buffer, identical on both substrates.
//
// Locking: each peer's outbound side has its own mutex, so a send that
// waits out one peer's dial and hello (up to `connect_timeout_ms` when the
// peer accepts but never answers) holds up only later sends to that peer.
// Callers that serialize their own sends still wait: FederatedService sends
// under its own mutex, so its pump thread still waits out a mute peer's
// dial.
//
// Time: now() is (steady_clock - start) / tick_ms. Drivers poll
// receive()/now() on their own cadence; arrival order within a peer is
// stream order, across peers it is lock-acquisition order.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "rota/net/session.hpp"
#include "rota/net/transport.hpp"

namespace rota::net {

/// A peer address: "unix:<path>" or "tcp:<port>" (loopback). Listen
/// addresses use the same spelling.
struct SocketTransportConfig {
  cluster::NodeId local = cluster::kNoNode;
  std::string listen;                            // e.g. "unix:/tmp/rota-0.sock"
  std::map<cluster::NodeId, std::string> peers;  // peer id -> address
  std::string secret;        // "" = open; else hello tokens must match
  int connect_timeout_ms = 500;
  int reconnect_backoff_ms = 500;  // wait after a failed connect/dead peer
  std::size_t backlog_frames = 64;  // outbound frames queued per unreachable peer
  std::int64_t tick_ms = 10;        // protocol-tick duration for now()
};

class SocketTransport final : public Transport {
 public:
  /// Binds the listener and starts accepting. Throws
  /// std::system_error when the listen address cannot be bound and
  /// std::invalid_argument on a malformed config.
  explicit SocketTransport(SocketTransportConfig config);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  cluster::NodeId local() const override { return config_.local; }
  void send(cluster::Message m) override;
  std::vector<cluster::Message> receive() override;
  Tick now() const override;
  void close() override;

  /// The TCP port actually bound (after "tcp:0"), or 0 for unix listeners.
  std::uint16_t bound_port() const {
    return listener_ ? listener_->tcp_port() : 0;
  }

 private:
  struct Peer {
    std::mutex mutex;  // guards fd, next_attempt and backlog
    Endpoint address;
    int fd = -1;
    std::chrono::steady_clock::time_point next_attempt{};  // backoff gate
    std::vector<std::string> backlog;  // framed bytes awaiting a connection
  };

  /// Returns a connected, hello'd fd for `peer` (its mutex held),
  /// (re)connecting if the backoff allows and flushing the peer's backlog
  /// after a reconnect; -1 when the peer is unreachable right now.
  int peer_fd_locked(Peer& peer);
  /// Queues a framed message for an unreachable peer, evicting the oldest
  /// frame beyond `backlog_frames`.
  void enqueue_locked(Peer& peer, std::string framed);
  /// One inbound session: the hello, then the peer's message stream.
  void serve_peer(Session& session);

  SocketTransportConfig config_;
  std::chrono::steady_clock::time_point start_;

  std::map<cluster::NodeId, Peer> peers_;  // shape fixed by the constructor

  std::mutex inbox_mutex_;  // guards inbox_, closed_
  std::vector<cluster::Message> inbox_;
  bool closed_ = false;

  std::optional<SessionListener> listener_;  // last: its sessions use the above
};

}  // namespace rota::net
