#include "rota/service/server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <stdexcept>

#include "rota/net/sockets.hpp"
#include "rota/net/wire.hpp"

namespace rota::service {

using net::make_tcp_listener;
using net::make_unix_listener;
using net::send_all;

/// One accepted connection: a reader thread feeding the service, and a
/// write path any responding thread may call. Kept alive by shared_ptr — the
/// response callbacks hold one, so a session outlives its socket peer for
/// exactly as long as decisions are still owed to it. When its reader exits,
/// the server drops its own reference (retire()), so the socket closes with
/// the last owed decision.
struct ServiceServer::Session {
  explicit Session(int fd_in) : fd(fd_in) {}
  ~Session() {
    if (fd >= 0) ::close(fd);
  }

  void write_response(const AdmitResponse& response) {
    write_raw(frame(response_payload(response)));
  }

  void write_raw(const std::string& bytes) {
    std::lock_guard<std::mutex> lock(write_mutex);
    if (!writable) return;
    if (!send_all(fd, bytes.data(), bytes.size())) writable = false;
  }

  /// Ends the conversation from our side: the peer sees EOF (a protocol
  /// violator would otherwise wait forever for a hang-up that never comes)
  /// and later responses are dropped. ~Session still owns the close().
  void hang_up() {
    std::lock_guard<std::mutex> lock(write_mutex);
    writable = false;
    ::shutdown(fd, SHUT_RDWR);
  }

  const int fd;
  std::mutex write_mutex;
  bool writable = true;  // guarded by write_mutex
  std::thread reader;  // guarded by the server's sessions_mutex_
};

ServiceServer::ServiceServer(AdmissionService& service, ServerConfig config,
                             SubmitFn submit)
    : service_(service), config_(std::move(config)), submit_(std::move(submit)) {
  if (!submit_) {
    submit_ = [this](AdmitRequest request, AdmissionService::ResponseFn done) {
      service_.submit(std::move(request), std::move(done));
    };
  }
  if (config_.unix_path.empty() && !config_.tcp) {
    throw std::invalid_argument("ServiceServer needs a unix path or tcp");
  }
  if (!config_.unix_path.empty()) {
    unix_fd_ = make_unix_listener(config_.unix_path);
  }
  if (config_.tcp) {
    try {
      tcp_fd_ = make_tcp_listener(config_.tcp_port, bound_tcp_port_);
    } catch (...) {
      if (unix_fd_ >= 0) ::close(unix_fd_);
      throw;
    }
  }
  // Capture the fds by value: the members are overwritten by stop() (which
  // may run before a freshly spawned acceptor gets scheduled), the captured
  // copies are immutable.
  if (const int fd = unix_fd_; fd >= 0) {
    acceptors_.emplace_back([this, fd] { accept_loop(fd); });
  }
  if (const int fd = tcp_fd_; fd >= 0) {
    acceptors_.emplace_back([this, fd] { accept_loop(fd); });
  }
}

ServiceServer::~ServiceServer() { stop(); }

void ServiceServer::accept_loop(int listen_fd) {
  for (;;) {
    join_exited_readers();
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (stopping_.load(std::memory_order_acquire)) return;
      if (errno == EMFILE || errno == ENFILE || errno == ECONNABORTED ||
          errno == ENOBUFS || errno == ENOMEM) {
        // Out of descriptors (or one aborted handshake): back off while
        // sessions close, and keep accepting. Giving up here would leave
        // every later client connected into the backlog and never answered.
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        continue;
      }
      return;  // listener closed (stop()) or fatal: acceptor exits
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    sessions_accepted_.fetch_add(1, std::memory_order_relaxed);
    start_session(fd);
  }
}

void ServiceServer::start_session(int fd) {
  auto session = std::make_shared<Session>(fd);
  // Under the lock, so the reader cannot retire before it is listed.
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  session->reader = std::thread([this, session] {
    read_requests(session);
    retire(session);
  });
  sessions_.push_back(std::move(session));
}

void ServiceServer::retire(const std::shared_ptr<Session>& session) {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  exited_readers_.push_back(std::move(session->reader));
  sessions_.erase(std::find(sessions_.begin(), sessions_.end(), session));
  sessions_cv_.notify_all();
}

void ServiceServer::join_exited_readers() {
  std::vector<std::thread> exited;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    exited.swap(exited_readers_);
  }
  for (auto& t : exited) t.join();
}

void ServiceServer::read_requests(const std::shared_ptr<Session>& session) {
  FrameReader frames;
  char buf[4096];
  // With a secret configured, the session opens with a hello frame whose
  // token must match before any request is read (rota/net/wire).
  bool authed = config_.secret.empty();
  for (;;) {
    const ssize_t n = ::recv(session->fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;  // peer closed, or stop() half-closed us
    try {
      frames.feed(buf, static_cast<std::size_t>(n));
      while (auto payload = frames.next()) {
        if (net::is_hello_payload(*payload)) {
          const net::Hello hello = net::decode_hello(*payload);
          if (!config_.secret.empty() && hello.token != config_.secret) {
            throw CodecError("unauthorized: bad session token");
          }
          authed = true;
          session->write_raw(frame("ok"));
          continue;
        }
        if (!authed) {
          throw CodecError("unauthorized: session token required");
        }
        AdmitRequest request = parse_request(*payload);
        submit_(std::move(request),
                [session](const AdmitResponse& response) {
                  session->write_response(response);
                });
      }
    } catch (const CodecError& e) {
      // Protocol violation: answer what we can and hang up. (id 0 — a
      // malformed frame has no trustworthy id.)
      AdmitResponse err;
      err.verdict = Verdict::kRejected;
      err.reason = std::string("protocol error: ") + e.what();
      session->write_response(err);
      session->hang_up();
      return;
    }
  }
}

void ServiceServer::stop() {
  if (stopped_.exchange(true)) return;
  stopping_.store(true, std::memory_order_release);

  // 1. No new connections: closing the listeners unblocks accept().
  if (unix_fd_ >= 0) ::shutdown(unix_fd_, SHUT_RDWR);
  if (tcp_fd_ >= 0) ::shutdown(tcp_fd_, SHUT_RDWR);
  if (unix_fd_ >= 0) ::close(unix_fd_);
  if (tcp_fd_ >= 0) ::close(tcp_fd_);
  unix_fd_ = tcp_fd_ = -1;
  for (auto& t : acceptors_) t.join();
  acceptors_.clear();

  // 2. No new requests: half-close every session for reading and wait for
  // each reader to see EOF and retire. The write halves stay open — queued
  // decisions still owe responses.
  {
    std::unique_lock<std::mutex> lock(sessions_mutex_);
    for (auto& s : sessions_) ::shutdown(s->fd, SHUT_RD);
    sessions_cv_.wait(lock, [this] { return sessions_.empty(); });
  }
  join_exited_readers();

  // 3. Drain: every request accepted into the queue is answered through the
  // still-writable sessions before the dispatcher stops.
  service_.drain_and_stop();

  // 4. Tear down. Each socket closed with its session's last decision.
  if (!config_.unix_path.empty()) ::unlink(config_.unix_path.c_str());
}

}  // namespace rota::service
