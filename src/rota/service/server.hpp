// ServiceServer: the socket front end of the admission daemon.
//
// Listens on a Unix-domain socket (and optionally loopback TCP), reassembles
// length-prefixed frames per connection, parses admit requests, and submits
// them to an AdmissionService. Decisions stream back on the same connection
// as they are made — possibly out of submission order (a shed or invalid
// request is answered at once, a forwarded one when a peer decides); the
// client correlates by request id. Each session serializes its writes
// behind a mutex, so the dispatcher, the federation pump and inline sheds
// answering one connection never interleave frames.
//
// A session whose reader has exited (the peer closed, or a protocol error
// hung it up) retires: the server forgets it and joins its reader at the
// next accept, so a long-lived daemon holds descriptors only for live
// connections and decisions still owed. When accept() runs out of
// descriptors anyway, the acceptor backs off and keeps listening rather than
// going silent.
//
// stop() is the clean-shutdown path the daemon's SIGINT/SIGTERM handler
// drives: (1) stop accepting connections, (2) half-close every session for
// reading so no new requests enter, (3) drain the service — every request
// already queued still gets its response written, (4) close the sockets and
// join. Nothing admitted is abandoned; nothing new sneaks in.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "rota/service/service.hpp"

namespace rota::service {

struct ServerConfig {
  std::string unix_path;       // empty: no Unix listener
  bool tcp = false;            // true: also listen on loopback TCP
  std::uint16_t tcp_port = 0;  // 0: ephemeral (read back via tcp_port())
  std::string secret;          // non-empty: sessions must open with a hello
                               // frame carrying this token (rota/net/wire);
                               // a wrong token is answered with a rejected
                               // decision and a hang-up
};

class ServiceServer {
 public:
  /// Parsed requests normally go straight to AdmissionService::submit; a
  /// SubmitFn reroutes them (the federation daemon passes
  /// FederatedService::submit so local rejections can try the peers).
  using SubmitFn = std::function<void(AdmitRequest, AdmissionService::ResponseFn)>;

  /// Binds and starts accepting immediately. Throws std::system_error when a
  /// listener cannot be bound. At least one of unix_path / tcp must be set.
  ServiceServer(AdmissionService& service, ServerConfig config,
                SubmitFn submit = nullptr);
  ~ServiceServer();

  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  const std::string& unix_path() const { return config_.unix_path; }
  /// The actually-bound TCP port (resolves an ephemeral request); 0 if none.
  std::uint16_t tcp_port() const { return bound_tcp_port_; }

  std::size_t sessions_accepted() const {
    return sessions_accepted_.load(std::memory_order_relaxed);
  }

  /// Clean drain, per the header comment. Idempotent; the destructor calls it.
  void stop();

 private:
  struct Session;

  void accept_loop(int listen_fd);
  void start_session(int fd);
  void read_requests(const std::shared_ptr<Session>& session);
  /// The reader's last act: unlists its session, parks its thread to join.
  void retire(const std::shared_ptr<Session>& session);
  void join_exited_readers();

  AdmissionService& service_;
  ServerConfig config_;
  SubmitFn submit_;
  std::uint16_t bound_tcp_port_ = 0;

  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  std::vector<std::thread> acceptors_;

  std::mutex sessions_mutex_;
  std::condition_variable sessions_cv_;               // a session retired
  std::vector<std::shared_ptr<Session>> sessions_;    // readers still running
  std::vector<std::thread> exited_readers_;           // retired, to join
  std::atomic<std::size_t> sessions_accepted_{0};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
};

}  // namespace rota::service
