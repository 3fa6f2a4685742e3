#include "rota/net/frame.hpp"

#include <charconv>

namespace rota::net {

namespace {

template <typename Int>
Int parse_int(std::string_view token, const char* what) {
  Int value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc() || ptr != token.data() + token.size()) {
    throw CodecError(std::string("malformed ") + what + ": '" +
                     std::string(token) + "'");
  }
  return value;
}

}  // namespace

std::vector<std::string_view> tokens_of(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    std::size_t j = i;
    while (j < line.size() && line[j] != ' ') ++j;
    if (j > i) out.push_back(line.substr(i, j - i));
    i = j;
  }
  return out;
}

std::uint64_t parse_u64(std::string_view token, const char* what) {
  return parse_int<std::uint64_t>(token, what);
}

std::int64_t parse_i64(std::string_view token, const char* what) {
  return parse_int<std::int64_t>(token, what);
}

std::string frame(std::string_view payload) {
  if (payload.size() > kMaxFramePayload) {
    throw CodecError("frame payload exceeds " +
                     std::to_string(kMaxFramePayload) + " bytes");
  }
  const auto n = static_cast<std::uint32_t>(payload.size());
  std::string out;
  out.reserve(4 + payload.size());
  out.push_back(static_cast<char>(n & 0xff));
  out.push_back(static_cast<char>((n >> 8) & 0xff));
  out.push_back(static_cast<char>((n >> 16) & 0xff));
  out.push_back(static_cast<char>((n >> 24) & 0xff));
  out.append(payload);
  return out;
}

void FrameReader::feed(const char* data, std::size_t n) {
  buffer_.append(data, n);
}

std::optional<std::string> FrameReader::next() {
  if (buffer_.size() < 4) return std::nullopt;
  const auto b = [&](std::size_t i) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(buffer_[i]));
  };
  const std::uint32_t length = b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24);
  if (length > kMaxFramePayload) {
    throw CodecError("incoming frame announces " + std::to_string(length) +
                     " bytes (max " + std::to_string(kMaxFramePayload) + ")");
  }
  if (buffer_.size() < 4 + static_cast<std::size_t>(length)) return std::nullopt;
  std::string payload = buffer_.substr(4, length);
  buffer_.erase(0, 4 + static_cast<std::size_t>(length));
  return payload;
}

}  // namespace rota::net
