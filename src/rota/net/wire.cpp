#include "rota/net/wire.hpp"

#include <sstream>
#include <vector>

namespace rota::net {

namespace {

using cluster::Message;
using cluster::MsgKind;
using cluster::msg_kind_name;

/// Locations travel by name; the default ("nowhere") location is spelled `-`
/// because re-interning its display name would mint a fresh id.
std::string location_token(const Location& loc) {
  if (loc.id() == 0) return "-";
  const std::string name = loc.name();
  if (name.find(' ') != std::string::npos ||
      name.find('\n') != std::string::npos) {
    throw CodecError("location name '" + name + "' is not wire-safe");
  }
  return name;
}

Location parse_location(std::string_view token) {
  if (token == "-") return Location();
  return Location(std::string(token));
}

std::string name_token(const std::string& name, const char* what) {
  if (name.empty()) return "-";
  if (name.find(' ') != std::string::npos ||
      name.find('\n') != std::string::npos) {
    throw CodecError(std::string(what) + " '" + name + "' is not wire-safe");
  }
  return name;
}

ResourceKind parse_kind(std::string_view token) {
  if (token == "cpu") return ResourceKind::kCpu;
  if (token == "network") return ResourceKind::kNetwork;
  if (token == "memory") return ResourceKind::kMemory;
  if (token == "disk") return ResourceKind::kDisk;
  if (token == "custom") return ResourceKind::kCustom;
  throw CodecError("unknown resource kind '" + std::string(token) + "'");
}

MsgKind parse_msg_kind(std::string_view token) {
  for (const MsgKind k :
       {MsgKind::kProbe, MsgKind::kOffer, MsgKind::kNack, MsgKind::kClaim,
        MsgKind::kClaimAck, MsgKind::kClaimReject, MsgKind::kDigest}) {
    if (token == msg_kind_name(k)) return k;
  }
  throw CodecError("unknown message kind '" + std::string(token) + "'");
}

void check_version(std::string_view token) {
  const std::uint64_t version = parse_u64(token, "wire version");
  if (version != kWireVersion) {
    throw CodecError("unsupported wire version " + std::to_string(version) +
                     " (this build speaks " + std::to_string(kWireVersion) + ")");
  }
}

}  // namespace

std::string encode_message(const Message& m) {
  std::ostringstream out;
  out << "rotamsg " << kWireVersion << ' ' << msg_kind_name(m.kind) << ' '
      << m.from << ' ' << m.to << ' ' << m.job << ' ' << m.finish << '\n';
  out << "work " << name_token(m.work.actor, "actor name") << ' '
      << location_token(m.work.home) << ' ' << m.work.state_size << ' '
      << m.work.earliest_start << ' ' << m.work.deadline << ' '
      << m.work.chunk_weights.size();
  for (const std::int64_t w : m.work.chunk_weights) out << ' ' << w;
  out << '\n';
  const std::vector<ResourceTerm> terms = m.digest.free.terms();
  out << "digest " << location_token(m.digest.site) << ' ' << m.digest.revision
      << ' ' << m.digest.as_of << ' ' << terms.size() << '\n';
  for (const ResourceTerm& t : terms) {
    out << "term " << kind_name(t.type().kind()) << ' '
        << location_token(t.type().source()) << ' '
        << location_token(t.type().destination()) << ' ' << t.rate() << ' '
        << t.interval().start() << ' ' << t.interval().end() << '\n';
  }
  if (!m.note.empty()) {
    if (m.note.find('\n') != std::string::npos) {
      throw CodecError("message note must be a single line");
    }
    out << "note " << m.note << '\n';
  }
  return out.str();
}

Message decode_message(const std::string& payload) {
  Message m;
  std::istringstream in(payload);
  std::string line;

  if (!std::getline(in, line)) throw CodecError("empty message payload");
  const auto header = tokens_of(line);
  if (header.size() != 7 || header[0] != "rotamsg") {
    throw CodecError(
        "message header must be 'rotamsg <v> <kind> <from> <to> <job> <finish>'");
  }
  check_version(header[1]);
  m.kind = parse_msg_kind(header[2]);
  m.from = static_cast<cluster::NodeId>(parse_u64(header[3], "from node"));
  m.to = static_cast<cluster::NodeId>(parse_u64(header[4], "to node"));
  m.job = parse_u64(header[5], "job id");
  m.finish = static_cast<Tick>(parse_i64(header[6], "finish tick"));

  std::size_t terms_expected = 0;
  bool saw_work = false;
  bool saw_digest = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.rfind("note ", 0) == 0) {
      m.note = line.substr(5);
      continue;
    }
    const auto t = tokens_of(line);
    if (t.empty()) continue;
    if (t[0] == "work") {
      if (t.size() < 7) {
        throw CodecError("work line must be "
                         "'work <actor> <home> <state> <start> <deadline> <n> w…'");
      }
      m.work.actor = t[1] == "-" ? std::string() : std::string(t[1]);
      m.work.home = parse_location(t[2]);
      m.work.state_size = parse_i64(t[3], "state size");
      m.work.earliest_start = static_cast<Tick>(parse_i64(t[4], "earliest start"));
      m.work.deadline = static_cast<Tick>(parse_i64(t[5], "deadline"));
      const std::size_t n = parse_u64(t[6], "chunk count");
      if (t.size() != 7 + n) {
        throw CodecError("work line announces " + std::to_string(n) +
                         " chunks but carries " + std::to_string(t.size() - 7));
      }
      m.work.chunk_weights.clear();
      m.work.chunk_weights.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        m.work.chunk_weights.push_back(parse_i64(t[7 + i], "chunk weight"));
      }
      saw_work = true;
    } else if (t[0] == "digest") {
      if (t.size() != 5) {
        throw CodecError(
            "digest line must be 'digest <site> <revision> <as_of> <nterms>'");
      }
      m.digest.site = parse_location(t[1]);
      m.digest.revision = parse_u64(t[2], "digest revision");
      m.digest.as_of = static_cast<Tick>(parse_i64(t[3], "digest as_of"));
      terms_expected = parse_u64(t[4], "term count");
      saw_digest = true;
    } else if (t[0] == "term") {
      if (t.size() != 7) {
        throw CodecError(
            "term line must be 'term <kind> <src> <dst> <rate> <from> <to>'");
      }
      if (terms_expected == 0) {
        throw CodecError("term line outside its digest's announced count");
      }
      --terms_expected;
      const ResourceKind kind = parse_kind(t[1]);
      const Location src = parse_location(t[2]);
      const Location dst = parse_location(t[3]);
      const Rate rate = static_cast<Rate>(parse_i64(t[4], "term rate"));
      const Tick from = static_cast<Tick>(parse_i64(t[5], "term from"));
      const Tick to = static_cast<Tick>(parse_i64(t[6], "term to"));
      const LocatedType type = src == dst ? LocatedType::node(kind, src)
                                          : LocatedType::link(kind, src, dst);
      m.digest.free.add(rate, TimeInterval(from, to), type);
    } else {
      throw CodecError("unknown message line '" + std::string(t[0]) + "'");
    }
  }
  if (!saw_work || !saw_digest) {
    throw CodecError("message payload missing work/digest sections");
  }
  if (terms_expected != 0) {
    throw CodecError("digest announces more terms than the payload carries");
  }
  return m;
}

bool is_message_payload(std::string_view payload) {
  return payload.rfind("rotamsg ", 0) == 0;
}

std::string encode_hello(const Hello& hello) {
  std::ostringstream out;
  out << "hello " << kWireVersion << ' ' << hello.node << ' ';
  if (hello.token.empty()) {
    out << '-';
  } else {
    if (hello.token.find(' ') != std::string::npos ||
        hello.token.find('\n') != std::string::npos) {
      throw CodecError("session token must be free of whitespace");
    }
    out << hello.token;
  }
  out << '\n';
  return out.str();
}

Hello decode_hello(const std::string& payload) {
  std::string_view line = payload;
  if (!line.empty() && line.back() == '\n') line.remove_suffix(1);
  const auto t = tokens_of(line);
  if (t.size() != 4 || t[0] != "hello") {
    throw CodecError("hello frame must be 'hello <v> <node_id> <token|->'");
  }
  check_version(t[1]);
  Hello hello;
  hello.node = static_cast<cluster::NodeId>(parse_u64(t[2], "node id"));
  hello.token = t[3] == "-" ? std::string() : std::string(t[3]);
  return hello;
}

bool is_hello_payload(std::string_view payload) {
  return payload.rfind("hello ", 0) == 0;
}

}  // namespace rota::net
