#include "rota/net/socket_transport.hpp"

#include <unistd.h>

#include <stdexcept>
#include <utility>

#include "rota/net/wire.hpp"
#include "rota/obs/obs.hpp"

namespace rota::net {

SocketTransport::SocketTransport(SocketTransportConfig config)
    : config_(std::move(config)), start_(std::chrono::steady_clock::now()) {
  if (config_.local == cluster::kNoNode) {
    throw std::invalid_argument("SocketTransport needs a local node id");
  }
  if (config_.tick_ms <= 0) {
    throw std::invalid_argument("SocketTransport tick_ms must be positive");
  }
  for (const auto& [id, spec] : config_.peers) {
    peers_[id].address = parse_endpoint(spec);  // fail fast on malformed addresses
  }
  if (!config_.listen.empty()) {
    listener_.emplace(std::vector{parse_endpoint(config_.listen)},
                      [this](const std::shared_ptr<Session>& s) { serve_peer(*s); });
  }
}

SocketTransport::~SocketTransport() { close(); }

Tick SocketTransport::now() const {
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count();
  return static_cast<Tick>(ms / config_.tick_ms);
}

void SocketTransport::enqueue_locked(Peer& peer, std::string framed) {
  if (peer.backlog.size() >= config_.backlog_frames) {
    peer.backlog.erase(peer.backlog.begin());  // oldest frame gives way
    obs::count(obs::CoreMetrics::get().transport_dropped);
  }
  peer.backlog.push_back(std::move(framed));
}

int SocketTransport::peer_fd_locked(Peer& peer) {
  if (peer.fd >= 0) return peer.fd;
  const auto now = std::chrono::steady_clock::now();
  if (now < peer.next_attempt) return -1;
  peer.next_attempt =
      now + std::chrono::milliseconds(config_.reconnect_backoff_ms);

  const Hello hello{config_.local, config_.secret};
  try {
    peer.fd = dial(peer.address, config_.connect_timeout_ms, &hello);
  } catch (const std::exception&) {
    return -1;  // unreachable, or the hello was refused
  }
  const int fd = peer.fd;
  obs::count(obs::CoreMetrics::get().transport_connects);

  // Flush, in order, what queued while the peer was unreachable. A one-shot
  // protocol send (a probe round) racing the peer's bind rides this out
  // instead of waiting for a full round-trip timeout.
  std::vector<std::string> backlog = std::move(peer.backlog);
  peer.backlog.clear();
  for (std::size_t i = 0; i < backlog.size(); ++i) {
    if (!send_all(fd, backlog[i].data(), backlog[i].size())) {
      ::close(fd);
      peer.fd = -1;
      peer.next_attempt =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(config_.reconnect_backoff_ms);
      peer.backlog.assign(std::make_move_iterator(backlog.begin() +
                                                  static_cast<std::ptrdiff_t>(i)),
                          std::make_move_iterator(backlog.end()));
      return -1;
    }
    obs::count(obs::CoreMetrics::get().transport_sent);
  }
  return fd;
}

void SocketTransport::send(cluster::Message m) {
  std::string framed;
  try {
    framed = frame(encode_message(m));
  } catch (const CodecError&) {
    obs::count(obs::CoreMetrics::get().transport_dropped);
    return;
  }

  auto it = peers_.find(m.to);
  if (it == peers_.end()) {
    obs::count(obs::CoreMetrics::get().transport_dropped);
    return;
  }
  Peer& peer = it->second;
  std::lock_guard<std::mutex> lock(peer.mutex);
  const int fd = peer_fd_locked(peer);
  if (fd < 0) {
    enqueue_locked(peer, std::move(framed));
    return;
  }
  if (!send_all(fd, framed.data(), framed.size())) {
    ::close(fd);
    peer.fd = -1;
    peer.next_attempt =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(config_.reconnect_backoff_ms);
    obs::count(obs::CoreMetrics::get().transport_dropped);
    return;
  }
  obs::count(obs::CoreMetrics::get().transport_sent);
}

std::vector<cluster::Message> SocketTransport::receive() {
  std::lock_guard<std::mutex> lock(inbox_mutex_);
  return std::exchange(inbox_, {});
}

void SocketTransport::serve_peer(Session& session) {
  // The hello must arrive promptly; a silent connection is hung up on.
  session.set_read_timeout(config_.connect_timeout_ms > 0
                               ? config_.connect_timeout_ms
                               : 1000);
  std::optional<Hello> hello;
  try {
    const std::optional<std::string> payload = session.read_frame();
    if (payload && is_hello_payload(*payload)) hello = decode_hello(*payload);
  } catch (const CodecError&) {
  }
  if (!hello) return;
  if (!config_.secret.empty() && hello->token != config_.secret) {
    session.send_frame("err unauthorized");
    obs::count(obs::CoreMetrics::get().transport_auth_failures);
    return;
  }
  if (!session.send_frame("ok")) return;
  session.set_read_timeout(0);  // the message stream blocks until close()

  try {
    while (const std::optional<std::string> payload = session.read_frame()) {
      if (!is_message_payload(*payload)) return;  // protocol violation: hang up
      cluster::Message m = decode_message(*payload);
      {
        std::lock_guard<std::mutex> lock(inbox_mutex_);
        if (closed_) return;
        inbox_.push_back(std::move(m));
      }
      obs::count(obs::CoreMetrics::get().transport_received);
    }
  } catch (const CodecError&) {
    // A malformed frame: hang up.
  }
}

void SocketTransport::close() {
  {
    std::lock_guard<std::mutex> lock(inbox_mutex_);
    if (closed_) return;
    closed_ = true;
  }
  // Stop accepting and wait for every inbound session to retire; each
  // session's descriptor closes as its reader returns.
  if (listener_) listener_->stop();

  for (auto& [id, peer] : peers_) {
    std::lock_guard<std::mutex> lock(peer.mutex);
    if (peer.fd >= 0) {
      ::close(peer.fd);
      peer.fd = -1;
    }
  }
}

}  // namespace rota::net
