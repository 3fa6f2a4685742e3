// The descriptor-level half of the socket session layer every ROTA socket
// surface shares — the admission daemon's front door and client
// (rota/service) and the federation's SocketTransport: endpoints, one
// listen, one dial-and-hello and one framed read. Unix sockets and
// loopback-only TCP. The threaded half, one reader per accepted session, is
// rota/net/session.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "rota/net/frame.hpp"

namespace rota::net {

struct Hello;

/// Throws std::system_error from errno.
[[noreturn]] void throw_errno(const char* what);

/// Where a socket listens or dials: a unix path, else a loopback TCP port
/// (0 when listening: ephemeral). Configs spell it "unix:<path>" or
/// "tcp:<port>".
struct Endpoint {
  std::string unix_path;
  std::uint16_t tcp_port = 0;
};

/// Parses "unix:<path>" / "tcp:<port>"; throws std::invalid_argument.
Endpoint parse_endpoint(const std::string& spec);

/// A listening socket on `at`, or std::system_error. A unix listener unlinks
/// a stale socket file first; TCP binds loopback only (by design — TLS is out
/// of scope, see docs/service.md). `bound_port` is the TCP port actually
/// bound (useful with port 0), or 0 for unix.
int listen_on(const Endpoint& at, std::uint16_t& bound_port);

/// Connects to `to` within `timeout_ms` (<= 0: block). With a `hello`, opens
/// the session: sends it as the first frame and waits, bounded by the same
/// timeout, for the listener's `ok`. Returns the connected fd with no recv
/// timeout. Throws std::system_error when the connect fails and
/// std::runtime_error when the listener refuses the hello or never answers.
int dial(const Endpoint& to, int timeout_ms, const Hello* hello = nullptr);

/// Bounds every subsequent recv() on `fd` to `timeout_ms` (0 clears the
/// bound). A timed-out recv returns -1 with errno EAGAIN/EWOULDBLOCK.
void set_recv_timeout(int fd, int timeout_ms);

/// Writes all of `data`, retrying short writes; false on a broken peer.
bool send_all(int fd, const char* data, std::size_t n);

/// The one framed read: the next payload off `fd`, reading into `frames`
/// until one is complete (surplus bytes stay buffered for the next call).
/// nullopt when the stream ends — errno is 0 on a clean EOF, otherwise it
/// says why (EAGAIN: the recv timeout elapsed). Throws CodecError when a
/// frame announces more than kMaxFramePayload.
std::optional<std::string> read_frame(int fd, FrameReader& frames);

}  // namespace rota::net
