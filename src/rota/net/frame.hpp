// Length-prefixed framing: the byte-stream layer every ROTA socket speaks.
//
// A frame is a 4-byte little-endian payload length followed by the payload.
// Length-prefixed framing keeps stream reassembly trivial (FrameReader below
// is a few lines and allocation-light) and leaves the payload free to be
// text — the admission service's request/response codec (rota/service/codec)
// and the cluster wire codec (rota/net/wire) both ride on it, so a service
// client and a federation peer are the same kind of byte stream. Every
// socket reads frames through one function, net::read_frame
// (rota/net/sockets.hpp), which feeds a FrameReader. Both payload codecs
// split and parse their text lines with the token helpers below.
//
// service/codec re-exports the framing names, so service code keeps its
// names.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace rota::net {

/// Hard ceiling on a frame payload. A peer announcing more is malformed or
/// hostile; the reader throws instead of buffering unboundedly.
inline constexpr std::size_t kMaxFramePayload = 1 << 20;

/// Malformed frames and payloads, at any protocol layer above the stream.
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& message) : std::runtime_error(message) {}
};

/// The space-separated tokens of one payload line (runs of spaces collapse).
std::vector<std::string_view> tokens_of(std::string_view line);

/// A whole token as a decimal integer; throws
/// CodecError("malformed <what>: '<token>'").
std::uint64_t parse_u64(std::string_view token, const char* what);
std::int64_t parse_i64(std::string_view token, const char* what);

/// Wraps a payload in a length-prefixed frame.
std::string frame(std::string_view payload);

/// Incremental frame reassembly over an arbitrary byte stream: feed() the
/// chunks the socket yields, drain complete payloads with next(). Throws
/// CodecError when a frame announces more than kMaxFramePayload.
class FrameReader {
 public:
  void feed(const char* data, std::size_t n);
  /// The next complete payload, or nullopt when more bytes are needed.
  std::optional<std::string> next();
  /// Bytes buffered but not yet returned (diagnostics).
  std::size_t buffered() const { return buffer_.size(); }

 private:
  std::string buffer_;
};

}  // namespace rota::net
