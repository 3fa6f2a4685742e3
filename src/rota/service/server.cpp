#include "rota/service/server.hpp"

#include <stdexcept>
#include <vector>

#include "rota/net/wire.hpp"

namespace rota::service {

namespace {

std::vector<net::Endpoint> endpoints_of(const ServerConfig& config) {
  if (config.unix_path.empty() && !config.tcp) {
    throw std::invalid_argument("ServiceServer needs a unix path or tcp");
  }
  std::vector<net::Endpoint> endpoints;
  if (!config.unix_path.empty()) endpoints.push_back({config.unix_path, 0});
  if (config.tcp) endpoints.push_back({"", config.tcp_port});
  return endpoints;
}

}  // namespace

ServiceServer::ServiceServer(AdmissionService& service, ServerConfig config,
                             SubmitFn submit)
    : service_(service),
      config_(std::move(config)),
      submit_(submit ? std::move(submit)
                     : SubmitFn([&service](AdmitRequest request,
                                           AdmissionService::ResponseFn done) {
                         service.submit(std::move(request), std::move(done));
                       })),
      listener_(endpoints_of(config_),
                [this](const std::shared_ptr<net::Session>& s) { serve(s); }) {}

ServiceServer::~ServiceServer() { stop(); }

void ServiceServer::serve(const std::shared_ptr<net::Session>& session) {
  // With a secret configured, the session opens with a hello frame whose
  // token must match before any request is read (rota/net/wire).
  bool authed = config_.secret.empty();
  try {
    while (const std::optional<std::string> payload = session->read_frame()) {
      if (net::is_hello_payload(*payload)) {
        const net::Hello hello = net::decode_hello(*payload);
        if (!config_.secret.empty() && hello.token != config_.secret) {
          throw CodecError("unauthorized: bad session token");
        }
        authed = true;
        session->send_frame("ok");
        continue;
      }
      if (!authed) {
        throw CodecError("unauthorized: session token required");
      }
      AdmitRequest request = parse_request(*payload);
      submit_(std::move(request), [session](const AdmitResponse& response) {
        session->send_frame(response_payload(response));
      });
    }
  } catch (const CodecError& e) {
    // Protocol violation: answer what we can and hang up. (id 0 — a
    // malformed frame has no trustworthy id.)
    AdmitResponse err;
    err.verdict = Verdict::kRejected;
    err.reason = std::string("protocol error: ") + e.what();
    session->send_frame(response_payload(err));
    session->hang_up();
  }
}

void ServiceServer::stop() {
  if (stopped_.exchange(true)) return;

  // 1–2. No new connections, no new requests: the listener closes, every
  // session is half-closed for reading and each reader has retired. The
  // write halves stay open — queued decisions still owe responses.
  listener_.stop();

  // 3. Drain: every request accepted into the queue is answered through the
  // still-writable sessions before the dispatcher stops.
  service_.drain_and_stop();

  // 4. Each socket closes with its session's last owed decision.
}

}  // namespace rota::service
