#include "rota/service/client.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>
#include <utility>

#include "rota/cluster/message.hpp"
#include "rota/net/wire.hpp"

namespace rota::service {

int ServiceClient::dial(const net::Endpoint& to, const ClientOptions& options) {
  const net::Hello hello{cluster::kNoNode, options.token};
  const int fd = net::dial(to, options.connect_timeout_ms,
                           options.token.empty() ? nullptr : &hello);
  net::set_recv_timeout(fd, std::max(options.read_timeout_ms, 0));
  return fd;
}

ServiceClient ServiceClient::connect_unix(const std::string& path,
                                          ClientOptions options) {
  net::Endpoint to{path, 0};
  const int fd = dial(to, options);
  return ServiceClient(fd, std::move(to), std::move(options));
}

ServiceClient ServiceClient::connect_tcp(std::uint16_t port,
                                         ClientOptions options) {
  net::Endpoint to{"", port};
  const int fd = dial(to, options);
  return ServiceClient(fd, std::move(to), std::move(options));
}

ServiceClient::ServiceClient(ServiceClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      endpoint_(std::move(other.endpoint_)),
      options_(std::move(other.options_)),
      reconnects_(other.reconnects_),
      frames_(std::move(other.frames_)) {}

ServiceClient& ServiceClient::operator=(ServiceClient&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    endpoint_ = std::move(other.endpoint_);
    options_ = std::move(other.options_);
    reconnects_ = other.reconnects_;
    frames_ = std::move(other.frames_);
  }
  return *this;
}

ServiceClient::~ServiceClient() { close(); }

void ServiceClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void ServiceClient::send(const AdmitRequest& request) {
  if (fd_ < 0) throw std::runtime_error("ServiceClient: closed");
  const std::string bytes = frame(request_payload(request));
  if (net::send_all(fd_, bytes.data(), bytes.size())) return;

  if (!options_.reconnect) net::throw_errno("send");

  // One reconnect: replace the dead socket, re-handshake, retry the write.
  // Responses pipelined on the old connection are lost with it.
  ::close(fd_);
  fd_ = -1;
  fd_ = dial(endpoint_, options_);  // throws when the re-dial fails
  frames_ = FrameReader();  // a partial frame from the dead socket is garbage
  ++reconnects_;
  if (!net::send_all(fd_, bytes.data(), bytes.size())) net::throw_errno("send");
}

std::optional<AdmitResponse> ServiceClient::receive() {
  if (fd_ < 0) return std::nullopt;
  if (auto payload = net::read_frame(fd_, frames_)) return parse_response(*payload);
  if (errno != 0) net::throw_errno("recv");  // EAGAIN here means the read timeout
  return std::nullopt;                       // clean EOF
}

AdmitResponse ServiceClient::call(const AdmitRequest& request) {
  send(request);
  while (auto response = receive()) {
    if (response->id == request.id) return *response;
    // A decision for an earlier pipelined request: not ours, keep reading.
  }
  throw std::runtime_error("connection closed before decision for request " +
                           std::to_string(request.id));
}

}  // namespace rota::service
