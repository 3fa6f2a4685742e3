// ServiceClient: a blocking connection to the admission daemon.
//
// One socket, dialed and read through the socket session layer the server
// and the peer transport share (rota/net/sockets.hpp: one dial-and-hello,
// one framed read). send() may be pipelined (many requests in flight);
// receive() yields decisions in the order the server made them, which is
// not necessarily submission order — correlate by id. call() is the
// one-in-flight convenience that does.
//
// ClientOptions bounds the blocking: connect_timeout_ms caps the dial (and
// the hello handshake when a token is set), read_timeout_ms caps every
// receive(). On a broken connection, send() makes exactly one reconnect
// attempt — re-dialing the original address and re-running the handshake —
// before giving up; responses to requests pipelined on the dead connection
// are lost (callers correlate by id and re-send).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "rota/net/sockets.hpp"
#include "rota/service/codec.hpp"

namespace rota::service {

struct ClientOptions {
  int connect_timeout_ms = 0;  // <= 0: block indefinitely
  int read_timeout_ms = 0;     // <= 0: block indefinitely
  std::string token;           // non-empty: open sessions with a hello frame
  bool reconnect = true;       // one re-dial when send() hits a dead socket
};

class ServiceClient {
 public:
  /// Factories throw std::system_error when the connection fails (including
  /// a connect timeout) and std::runtime_error when the server refuses the
  /// session token.
  static ServiceClient connect_unix(const std::string& path,
                                    ClientOptions options = {});
  static ServiceClient connect_tcp(std::uint16_t port,
                                   ClientOptions options = {});

  ServiceClient(ServiceClient&& other) noexcept;
  ServiceClient& operator=(ServiceClient&& other) noexcept;
  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;
  ~ServiceClient();

  /// Frames and writes one request. On a dead socket, re-dials once (when
  /// options.reconnect) and retries; throws std::system_error when that
  /// fails too.
  void send(const AdmitRequest& request);

  /// Blocks for the next decision; nullopt on clean EOF (server drained and
  /// closed). Throws CodecError on malformed frames and std::system_error
  /// when read_timeout_ms elapses with no frame.
  std::optional<AdmitResponse> receive();

  /// send + receive-until-matching-id. Throws std::runtime_error when the
  /// connection closes before the matching decision arrives.
  AdmitResponse call(const AdmitRequest& request);

  /// Connections survived so far (0 on a fresh client; bumps when send()'s
  /// reconnect path replaces a dead socket).
  std::size_t reconnects() const { return reconnects_; }

  void close();

 private:
  ServiceClient(int fd, net::Endpoint endpoint, ClientOptions options)
      : fd_(fd), endpoint_(std::move(endpoint)), options_(std::move(options)) {}

  /// Dials `to`, runs the hello handshake when a token is set, applies the
  /// read timeout. Returns the connected fd; throws like the factories.
  static int dial(const net::Endpoint& to, const ClientOptions& options);

  int fd_ = -1;
  net::Endpoint endpoint_;
  ClientOptions options_;
  std::size_t reconnects_ = 0;
  FrameReader frames_;
};

}  // namespace rota::service
