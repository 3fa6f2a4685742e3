#include "rota/net/session.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>

namespace rota::net {

Session::~Session() { ::close(fd_); }

bool Session::send_frame(std::string_view payload) {
  const std::string bytes = frame(payload);
  std::lock_guard<std::mutex> lock(write_mutex_);
  if (writable_ && !send_all(fd_, bytes.data(), bytes.size())) writable_ = false;
  return writable_;
}

void Session::hang_up() {
  std::lock_guard<std::mutex> lock(write_mutex_);
  writable_ = false;
  ::shutdown(fd_, SHUT_RDWR);
}

void Session::stop_reading() { ::shutdown(fd_, SHUT_RD); }

SessionListener::SessionListener(const std::vector<Endpoint>& endpoints,
                                 Handler handler)
    : handler_(std::move(handler)) {
  try {
    for (const Endpoint& at : endpoints) {
      std::uint16_t port = 0;
      listen_fds_.push_back(listen_on(at, port));
      if (at.unix_path.empty()) {
        tcp_port_ = port;
      } else {
        unix_paths_.push_back(at.unix_path);
      }
    }
  } catch (...) {
    for (const int fd : listen_fds_) ::close(fd);
    throw;
  }
  for (const int fd : listen_fds_) {
    acceptors_.emplace_back([this, fd] { accept_loop(fd); });
  }
}

void SessionListener::accept_loop(int listen_fd) {
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
        // every later connection in the backlog and never answered.
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
    auto session = std::make_shared<Session>(fd);
    // Under the lock, so the reader cannot retire before it is listed.
    std::lock_guard<std::mutex> lock(mutex_);
    std::thread reader([this, session] {
      handler_(session);
      retire(session.get());
    });
    sessions_.push_back(Running{std::move(session), std::move(reader)});
  }
}

void SessionListener::retire(const Session* session) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = std::find_if(sessions_.begin(), sessions_.end(),
                               [session](const Running& r) {
                                 return r.session.get() == session;
                               });
  exited_.push_back(std::move(it->reader));
  sessions_.erase(it);
  retired_.notify_all();
}

void SessionListener::join_exited_readers() {
  std::vector<std::thread> exited;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    exited.swap(exited_);
  }
  for (auto& t : exited) t.join();
}

void SessionListener::stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;

  // No new connections: shutting a listener down wakes its accept(). Close
  // only after the join, so an acceptor never sees a recycled descriptor.
  for (const int fd : listen_fds_) ::shutdown(fd, SHUT_RDWR);
  for (auto& t : acceptors_) t.join();
  for (const int fd : listen_fds_) ::close(fd);
  for (const std::string& path : unix_paths_) ::unlink(path.c_str());

  // No new input: every reader sees EOF, returns from its handler and
  // retires. The write halves stay open.
  {
    std::unique_lock<std::mutex> lock(mutex_);
    for (const Running& r : sessions_) r.session->stop_reading();
    retired_.wait(lock, [this] { return sessions_.empty(); });
  }
  join_exited_readers();
}

}  // namespace rota::net
