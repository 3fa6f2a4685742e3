// The threaded half of the socket session layer (the descriptor half is
// rota/net/sockets.hpp): one listener for the admission daemon's front door
// (ServiceServer) and the federation's peer transport (SocketTransport).
//
// A SessionListener accepts on its endpoints and runs every accepted
// connection as a Session on a reader thread of its own, calling the
// owner's handler there — a slow or silent connection stalls only itself.
// When the handler returns, the reader retires itself: the listener forgets
// the session and joins the thread at its next accept, and the descriptor
// closes with the last reference to the Session (a handler that hands the
// Session to response callbacks keeps it open for exactly as long as they
// owe it). When accept() runs out of descriptors, the acceptor backs off and
// keeps listening rather than going silent.
//
// stop() closes the listeners, half-closes every session for reading and
// waits for the readers to retire, so the owner can drain what they handed
// it afterwards: write halves stay open for responses still owed.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "rota/net/frame.hpp"
#include "rota/net/sockets.hpp"

namespace rota::net {

/// One accepted connection. Reads belong to its reader thread; writes may
/// come from any thread and never interleave.
class Session {
 public:
  explicit Session(int fd) : fd_(fd) {}
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// The next frame payload (read_frame). Reader thread only.
  std::optional<std::string> read_frame() { return net::read_frame(fd_, frames_); }
  /// Bounds each later read to `timeout_ms` (0: block). Reader thread only.
  void set_read_timeout(int timeout_ms) { set_recv_timeout(fd_, timeout_ms); }

  /// Frames and writes `payload`. False once the peer is gone or hang_up()
  /// ran; later writes are dropped.
  bool send_frame(std::string_view payload);
  /// Ends the conversation from our side: the peer sees EOF (a protocol
  /// violator would otherwise wait forever for a hang-up that never comes)
  /// and later writes are dropped. ~Session still owns the close().
  void hang_up();
  /// Half-closes for reading: the reader sees EOF, writes still go out.
  void stop_reading();

 private:
  const int fd_;
  FrameReader frames_;  // reader thread only
  std::mutex write_mutex_;
  bool writable_ = true;  // guarded by write_mutex_
};

class SessionListener {
 public:
  /// Runs on the session's reader thread; the session retires when it returns.
  using Handler = std::function<void(const std::shared_ptr<Session>&)>;

  /// Binds every endpoint and starts accepting. Throws std::system_error
  /// when one cannot be bound.
  SessionListener(const std::vector<Endpoint>& endpoints, Handler handler);
  ~SessionListener() { stop(); }
  SessionListener(const SessionListener&) = delete;
  SessionListener& operator=(const SessionListener&) = delete;

  /// The TCP port actually bound (resolves an ephemeral request); 0 if none.
  std::uint16_t tcp_port() const { return tcp_port_; }
  std::size_t sessions_accepted() const {
    return sessions_accepted_.load(std::memory_order_relaxed);
  }

  /// Closes the listeners (unlinking unix socket files), half-closes every
  /// session for reading and joins every reader. Idempotent.
  void stop();

 private:
  struct Running {
    std::shared_ptr<Session> session;
    std::thread reader;
  };

  void accept_loop(int listen_fd);
  /// The reader's last act: unlists its session, parks its thread to join.
  void retire(const Session* session);
  void join_exited_readers();

  Handler handler_;
  std::vector<int> listen_fds_;
  std::vector<std::string> unix_paths_;
  std::uint16_t tcp_port_ = 0;

  std::mutex mutex_;
  std::condition_variable retired_;    // a session retired
  std::vector<Running> sessions_;      // readers still running
  std::vector<std::thread> exited_;    // retired, to join
  std::atomic<std::size_t> sessions_accepted_{0};
  std::atomic<bool> stopping_{false};
  std::vector<std::thread> acceptors_;  // last: they use the above
};

}  // namespace rota::net
