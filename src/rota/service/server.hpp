// ServiceServer: the socket front end of the admission daemon.
//
// Listens on a Unix-domain socket (and optionally loopback TCP) through the
// socket session layer it shares with the federation's peer transport
// (rota/net/session.hpp): one reader thread per connection reads its frames,
// parses admit requests, and submits them to an AdmissionService. Decisions
// stream back on the same connection as they are made — possibly out of
// submission order (a shed or invalid request is answered at once, a
// forwarded one when a peer decides); the client correlates by request id.
// Writes to one session never interleave, so the dispatcher, the federation
// pump and inline sheds answering one connection never mix frames.
//
// A session whose reader has exited (the peer closed, or a protocol error
// hung it up) retires: the listener forgets it and joins its reader at the
// next accept, so a long-lived daemon holds descriptors only for live
// connections and decisions still owed. When accept() runs out of
// descriptors anyway, the acceptor backs off and keeps listening rather than
// going silent.
//
// stop() is the clean-shutdown path the daemon's SIGINT/SIGTERM handler
// drives: (1) stop accepting connections, (2) half-close every session for
// reading so no new requests enter, (3) drain the service — every request
// already queued still gets its response written, (4) each socket closes
// with its last owed decision. Nothing admitted is abandoned; nothing new
// sneaks in.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "rota/net/session.hpp"
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
  std::uint16_t tcp_port() const { return listener_.tcp_port(); }

  std::size_t sessions_accepted() const { return listener_.sessions_accepted(); }

  /// Clean drain, per the header comment. Idempotent; the destructor calls it.
  void stop();

 private:
  /// One session's reader: frames in, requests submitted, until EOF or a
  /// protocol error.
  void serve(const std::shared_ptr<net::Session>& session);

  AdmissionService& service_;
  ServerConfig config_;
  SubmitFn submit_;
  std::atomic<bool> stopped_{false};
  net::SessionListener listener_;  // last: its sessions use the above
};

}  // namespace rota::service
