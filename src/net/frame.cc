#include "net/frame.h"

#include "net/socket.h"
#include "net/wire.h"

namespace tcf {

const char* MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kPing: return "Ping";
    case MessageType::kPong: return "Pong";
    case MessageType::kQueryRequest: return "QueryRequest";
    case MessageType::kQueryResponse: return "QueryResponse";
    case MessageType::kUpdateRequest: return "UpdateRequest";
    case MessageType::kUpdateResponse: return "UpdateResponse";
    case MessageType::kError: return "Error";
  }
  return "Unknown";
}

void AppendFrame(MessageType type, uint64_t request_id,
                 std::string_view payload, std::string* out) {
  TCF_CHECK_MSG(payload.size() <= kMaxPayloadBytes,
                "frame payload exceeds the codec cap");
  WireWriter w;
  w.PutU32(kFrameMagic);
  w.PutU8(kProtocolVersion);
  w.PutU8(static_cast<uint8_t>(type));
  w.PutU16(0);  // flags
  w.PutU64(request_id);
  w.PutU32(static_cast<uint32_t>(payload.size()));
  out->append(w.buffer());
  out->append(payload);
}

std::string EncodeFrame(MessageType type, uint64_t request_id,
                        std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  AppendFrame(type, request_id, payload, &out);
  return out;
}

Status DecodeFrameHeader(const uint8_t* data, size_t size,
                         size_t max_payload, FrameHeader* out) {
  WireReader r(data, size);
  uint32_t magic = 0;
  uint16_t flags = 0;
  uint8_t type = 0;
  uint32_t payload_size = 0;
  if (!r.ReadU32(&magic) || !r.ReadU8(&out->version) || !r.ReadU8(&type) ||
      !r.ReadU16(&flags) || !r.ReadU64(&out->request_id) ||
      !r.ReadU32(&payload_size)) {
    return Status::InvalidArgument("frame header truncated");
  }
  if (magic != kFrameMagic) {
    return Status::InvalidArgument("bad frame magic");
  }
  if (flags != 0) {
    return Status::InvalidArgument("reserved frame flags set");
  }
  if (out->version != kProtocolVersion) {
    return Status::FailedPrecondition(
        "protocol version mismatch: peer speaks v" +
        std::to_string(out->version) + ", this build speaks v" +
        std::to_string(kProtocolVersion));
  }
  if (payload_size > max_payload || payload_size > kMaxPayloadBytes) {
    return Status::OutOfRange("frame payload of " +
                              std::to_string(payload_size) +
                              " bytes exceeds the limit of " +
                              std::to_string(max_payload));
  }
  out->type = static_cast<MessageType>(type);
  out->payload_size = payload_size;
  return Status::OK();
}

Status WriteFrame(const Socket& socket, MessageType type, uint64_t request_id,
                  std::string_view payload) {
  const std::string frame = EncodeFrame(type, request_id, payload);
  return WriteAll(socket, frame.data(), frame.size());
}

Result<Frame> ReadFrame(const Socket& socket, size_t max_payload) {
  uint8_t header_bytes[kFrameHeaderSize];
  Result<size_t> got = ReadFull(socket, header_bytes, kFrameHeaderSize);
  if (!got.ok()) return got.status();
  if (got.value() == 0) return Status::NotFound("connection closed");
  if (got.value() < kFrameHeaderSize) {
    return Status::IOError("connection closed inside a frame header");
  }

  Frame frame;
  TCF_RETURN_NOT_OK(DecodeFrameHeader(header_bytes, kFrameHeaderSize,
                                      max_payload, &frame.header));
  frame.payload.resize(frame.header.payload_size);
  if (frame.header.payload_size > 0) {
    got = ReadFull(socket, frame.payload.data(), frame.payload.size());
    if (!got.ok()) return got.status();
    if (got.value() < frame.payload.size()) {
      return Status::IOError("connection closed inside a frame payload");
    }
  }
  return frame;
}

}  // namespace tcf
