#include "rota/net/sockets.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>

#include "rota/net/wire.hpp"

namespace rota::net {

namespace {

/// The socket address of an endpoint (loopback for TCP).
struct SockAddr {
  union {
    sockaddr_un un;
    sockaddr_in in;
  } u{};
  socklen_t len = 0;
  int family = AF_UNIX;
  const sockaddr* get() const { return reinterpret_cast<const sockaddr*>(&u); }
};

SockAddr address_of(const Endpoint& e) {
  SockAddr addr;
  if (!e.unix_path.empty()) {
    if (e.unix_path.size() + 1 > sizeof(addr.u.un.sun_path)) {
      throw std::invalid_argument("unix socket path too long: " + e.unix_path);
    }
    addr.u.un.sun_family = AF_UNIX;
    std::memcpy(addr.u.un.sun_path, e.unix_path.c_str(), e.unix_path.size() + 1);
    addr.len = sizeof(sockaddr_un);
    return addr;
  }
  addr.u.in = sockaddr_in{};
  addr.u.in.sin_family = AF_INET;
  addr.u.in.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only, by design
  addr.u.in.sin_port = htons(e.tcp_port);
  addr.len = sizeof(sockaddr_in);
  addr.family = AF_INET;
  return addr;
}

/// Connects `fd` to `addr` within `timeout_ms` (<= 0: block). Returns false
/// on failure with errno set; the caller owns closing the fd.
bool connect_bounded(int fd, const SockAddr& addr, int timeout_ms) {
  if (timeout_ms <= 0) {
    for (;;) {
      if (::connect(fd, addr.get(), addr.len) == 0) return true;
      if (errno == EINTR) continue;
      return false;
    }
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) return false;
  if (::connect(fd, addr.get(), addr.len) == 0) {
    ::fcntl(fd, F_SETFL, flags);
    return true;
  }
  if (errno != EINPROGRESS && errno != EAGAIN) return false;
  pollfd pfd{fd, POLLOUT, 0};
  for (;;) {
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) {
      if (ready == 0) errno = ETIMEDOUT;
      return false;
    }
    break;
  }
  int err = 0;
  socklen_t err_len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) < 0) return false;
  if (err != 0) {
    errno = err;
    return false;
  }
  ::fcntl(fd, F_SETFL, flags);
  return true;
}

}  // namespace

void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

Endpoint parse_endpoint(const std::string& spec) {
  Endpoint e;
  if (spec.rfind("unix:", 0) == 0) {
    e.unix_path = spec.substr(5);
    if (e.unix_path.empty()) {
      throw std::invalid_argument("empty unix socket path: " + spec);
    }
    return e;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    const std::string digits = spec.substr(4);
    if (digits.empty()) throw std::invalid_argument("empty tcp port: " + spec);
    unsigned long port = 0;
    for (char c : digits) {
      if (c < '0' || c > '9') {
        throw std::invalid_argument("bad tcp port: " + spec);
      }
      port = port * 10 + static_cast<unsigned long>(c - '0');
      if (port > 65535) throw std::invalid_argument("tcp port too large: " + spec);
    }
    e.tcp_port = static_cast<std::uint16_t>(port);
    return e;
  }
  throw std::invalid_argument("address must be unix:<path> or tcp:<port>: " +
                              spec);
}

int listen_on(const Endpoint& at, std::uint16_t& bound_port) {
  const SockAddr addr = address_of(at);
  const int fd = ::socket(addr.family, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  if (addr.family == AF_UNIX) {
    ::unlink(at.unix_path.c_str());  // stale socket from a previous run
  } else {
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  const auto fail = [fd](const char* what) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno(what);
  };
  if (::bind(fd, addr.get(), addr.len) < 0) fail("bind");
  if (::listen(fd, 64) < 0) fail("listen");
  bound_port = 0;
  if (addr.family == AF_INET) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
      fail("getsockname");
    }
    bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

int dial(const Endpoint& to, int timeout_ms, const Hello* hello) {
  const SockAddr addr = address_of(to);
  // Encoded before connecting: a token the codec refuses must not leak a fd.
  const std::string hello_frame = hello ? frame(encode_hello(*hello)) : "";
  const int fd = ::socket(addr.family, SOCK_STREAM, 0);
  if (fd < 0 || !connect_bounded(fd, addr, timeout_ms)) {
    const int saved = errno;
    if (fd >= 0) ::close(fd);
    errno = saved;
    throw_errno(addr.family == AF_UNIX ? "connect(unix)" : "connect(tcp)");
  }
  if (!hello) return fd;

  // Session open: hello, then a bounded wait for the listener's verdict.
  set_recv_timeout(fd, std::max(timeout_ms, 0));
  std::optional<std::string> reply;
  if (send_all(fd, hello_frame.data(), hello_frame.size())) {
    FrameReader frames;
    try {
      reply = read_frame(fd, frames);
    } catch (const CodecError&) {
    }
  }
  if (reply != "ok") {
    ::close(fd);
    throw std::runtime_error(reply ? "session refused: " + *reply
                                   : "session handshake failed (no reply)");
  }
  set_recv_timeout(fd, 0);
  return fd;
}

void set_recv_timeout(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

bool send_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t sent = ::send(fd, data, n, MSG_NOSIGNAL);
    if (sent <= 0) {
      if (sent < 0 && errno == EINTR) continue;
      return false;
    }
    data += sent;
    n -= static_cast<std::size_t>(sent);
  }
  return true;
}

std::optional<std::string> read_frame(int fd, FrameReader& frames) {
  char buf[4096];
  for (;;) {
    if (auto payload = frames.next()) return payload;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      if (n == 0) errno = 0;  // clean EOF
      return std::nullopt;
    }
    frames.feed(buf, static_cast<std::size_t>(n));
  }
}

}  // namespace rota::net
