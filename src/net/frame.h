// The framing layer of the tcfrag wire protocol: every message on a
// connection is one length-prefixed frame —
//
//   offset size  field
//   0      4     magic          0x54434652 ("TCFR", little-endian u32)
//   4      1     version        kProtocolVersion
//   5      1     type           MessageType
//   6      2     flags          reserved, must be zero
//   8      8     request_id     u64, chosen by the requester; responses
//                               echo it, which is what makes PIPELINING
//                               work (many requests in flight per
//                               connection, answered in any order)
//   16     4     payload_length u32, bytes following the header
//
// The error-isolation contract starts here: DecodeFrameHeader validates
// magic, version, flags, and the payload bound and reports failures as a
// clean Status — a hostile or truncated header can refuse to parse but can
// never make the decoder read past the bytes it was given (see
// net/wire.h). Payload-level decode errors are the next layer up
// (net/protocol.h) and fail only their own request; header-level errors
// poison the stream (framing can no longer be trusted) and cost the
// connection — never the process.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace tcf {

inline constexpr uint32_t kFrameMagic = 0x54434652;  // "TCFR"
inline constexpr uint8_t kProtocolVersion = 1;
inline constexpr size_t kFrameHeaderSize = 20;
/// Hard codec-level payload cap; endpoints usually configure a tighter
/// one (ServerOptions::max_payload_bytes).
inline constexpr size_t kMaxPayloadBytes = 16u << 20;

/// Every message kind that can travel in a frame.
enum class MessageType : uint8_t {
  kPing = 1,           // liveness probe, empty payload
  kPong = 2,           // reply to kPing, empty payload
  kQueryRequest = 3,   // shortest-path query (net/protocol.h)
  kQueryResponse = 4,  // its answer
  kUpdateRequest = 5,  // one EdgeUpdate
  kUpdateResponse = 6, // the epoch that applied it
  kError = 7,          // clean failure of the echoed request id
  // 8 and 9 are retired and never reused: a peer answers them as unknown
  // types (docs/PROTOCOL.md §2).
};

const char* MessageTypeName(MessageType type);

struct FrameHeader {
  uint8_t version = kProtocolVersion;
  MessageType type = MessageType::kPing;
  uint64_t request_id = 0;
  uint32_t payload_size = 0;
};

/// Appends the 20-byte header followed by `payload` to `out`.
/// TCF_CHECKs the payload against kMaxPayloadBytes — oversize is a
/// programming error on the sending side (the receiving side handles it
/// as data, via DecodeFrameHeader).
void AppendFrame(MessageType type, uint64_t request_id,
                 std::string_view payload, std::string* out);

/// Convenience: one frame as a fresh buffer.
std::string EncodeFrame(MessageType type, uint64_t request_id,
                        std::string_view payload);

/// Parses and validates the first kFrameHeaderSize bytes of
/// `[data, data+size)`. Errors, in checking order:
///   - kInvalidArgument: short buffer, bad magic, or nonzero flags,
///   - kFailedPrecondition: protocol version mismatch,
///   - kOutOfRange: payload_length exceeds max_payload.
/// The type byte is NOT range-checked here: unknown types frame correctly
/// (length-prefixed), so the endpoint can fail just that request.
Status DecodeFrameHeader(const uint8_t* data, size_t size,
                         size_t max_payload, FrameHeader* out);

class Socket;

/// One decoded frame off a socket.
struct Frame {
  FrameHeader header;
  std::vector<uint8_t> payload;

  std::string_view payload_view() const {
    return {reinterpret_cast<const char*>(payload.data()), payload.size()};
  }
};

/// Writes one frame to the socket (header + payload, full write).
Status WriteFrame(const Socket& socket, MessageType type, uint64_t request_id,
                  std::string_view payload);

/// Reads exactly one frame. Error taxonomy, which the connection loops
/// dispatch on:
///   - kNotFound "connection closed": clean EOF at a frame boundary (the
///     peer finished) — not a protocol violation,
///   - kIOError: socket error or EOF in the middle of a frame (truncated),
///   - header validation errors as in DecodeFrameHeader.
Result<Frame> ReadFrame(const Socket& socket, size_t max_payload);

}  // namespace tcf
