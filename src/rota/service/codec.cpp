#include "rota/service/codec.hpp"

#include <sstream>

#include "rota/io/scenario.hpp"

namespace rota::service {

namespace {

using net::parse_u64;
using net::tokens_of;

std::string_view first_line(std::string_view payload, std::size_t& body_start) {
  const std::size_t nl = payload.find('\n');
  if (nl == std::string_view::npos) {
    body_start = payload.size();
    return payload;
  }
  body_start = nl + 1;
  return payload.substr(0, nl);
}

}  // namespace

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kAccepted: return "accepted";
    case Verdict::kRejected: return "rejected";
    case Verdict::kOverloaded: return "overloaded";
  }
  return "rejected";
}

std::string request_payload(const AdmitRequest& request) {
  std::ostringstream out;
  out << "admit " << request.id << ' ' << request.at << ' ' << request.budget_us
      << '\n';
  Scenario body;
  body.computations.push_back(request.computation);
  write_scenario(out, body);
  return out.str();
}

AdmitRequest parse_request(const std::string& payload) {
  std::size_t body_start = 0;
  const auto header = tokens_of(first_line(payload, body_start));
  if (header.size() != 4 || header[0] != "admit") {
    throw CodecError("request header must be 'admit <id> <at> <budget_us>'");
  }
  AdmitRequest request;
  request.id = parse_u64(header[1], "request id");
  request.at = static_cast<Tick>(parse_u64(header[2], "arrival tick"));
  request.budget_us = parse_u64(header[3], "budget");
  Scenario body;
  try {
    body = parse_scenario_string(payload.substr(body_start));
  } catch (const ScenarioParseError& e) {
    throw CodecError(std::string("request body: ") + e.what());
  }
  if (body.computations.size() != 1) {
    throw CodecError("request body must carry exactly one computation (got " +
                     std::to_string(body.computations.size()) + ")");
  }
  if (!body.supply.empty() || !body.nodes.empty() || !body.links.empty()) {
    throw CodecError("request body must not carry supply or cluster sections");
  }
  request.computation = std::move(body.computations.front());
  return request;
}

std::string response_payload(const AdmitResponse& response) {
  std::ostringstream out;
  out << "decision " << response.id << ' ' << verdict_name(response.verdict)
      << ' ' << (response.strategy.empty() ? "-" : response.strategy) << ' '
      << response.planning_ns << ' ' << response.queue_ns << '\n';
  if (!response.reason.empty()) out << "reason " << response.reason << '\n';
  return out.str();
}

AdmitResponse parse_response(const std::string& payload) {
  std::size_t body_start = 0;
  const auto header = tokens_of(first_line(payload, body_start));
  if (header.size() != 6 || header[0] != "decision") {
    throw CodecError(
        "response header must be "
        "'decision <id> <verdict> <strategy> <planning_ns> <queue_ns>'");
  }
  AdmitResponse response;
  response.id = parse_u64(header[1], "response id");
  if (header[2] == "accepted") {
    response.verdict = Verdict::kAccepted;
  } else if (header[2] == "rejected") {
    response.verdict = Verdict::kRejected;
  } else if (header[2] == "overloaded") {
    response.verdict = Verdict::kOverloaded;
  } else {
    throw CodecError("unknown verdict '" + std::string(header[2]) + "'");
  }
  response.strategy = header[3] == "-" ? "" : std::string(header[3]);
  response.planning_ns = parse_u64(header[4], "planning_ns");
  response.queue_ns = parse_u64(header[5], "queue_ns");
  std::string_view rest(payload);
  rest.remove_prefix(body_start);
  if (rest.rfind("reason ", 0) == 0) {
    rest.remove_prefix(7);
    const std::size_t nl = rest.find('\n');
    response.reason = std::string(rest.substr(0, nl));
  }
  return response;
}

bool is_request_payload(std::string_view payload) {
  return payload.rfind("admit ", 0) == 0;
}

}  // namespace rota::service
