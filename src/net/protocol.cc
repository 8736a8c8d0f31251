#include "net/protocol.h"

#include "net/wire.h"

namespace tcf {

namespace {

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("malformed payload: ") + what);
}

/// Every decoder ends here: a payload with bytes left over after its
/// message is malformed, not "a message plus noise".
Status ExpectExhausted(const WireReader& r) {
  if (!r.exhausted()) return Malformed("trailing bytes");
  return Status::OK();
}

}  // namespace

Status ErrorResponseMsg::ToStatus() const {
  switch (code) {
    case StatusCode::kOk: return Status::OK();
    case StatusCode::kInvalidArgument: return Status::InvalidArgument(message);
    case StatusCode::kNotFound: return Status::NotFound(message);
    case StatusCode::kOutOfRange: return Status::OutOfRange(message);
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(message);
    case StatusCode::kInternal: return Status::Internal(message);
    case StatusCode::kIOError: return Status::IOError(message);
  }
  return Status::Internal(message);
}

std::string EncodeQueryRequest(const QueryRequestMsg& msg) {
  WireWriter w;
  w.PutU32(msg.from);
  w.PutU32(msg.to);
  w.PutU8(static_cast<uint8_t>(msg.kind));
  return w.TakeBuffer();
}

Status DecodeQueryRequest(std::string_view payload, QueryRequestMsg* out) {
  WireReader r(payload);
  uint8_t kind = 0;
  if (!r.ReadU32(&out->from) || !r.ReadU32(&out->to) || !r.ReadU8(&kind)) {
    return Malformed("query request truncated");
  }
  if (kind > static_cast<uint8_t>(QueryKind::kReachability)) {
    return Malformed("unknown query kind");
  }
  out->kind = static_cast<QueryKind>(kind);
  return ExpectExhausted(r);
}

std::string EncodeQueryResponse(const QueryResponseMsg& msg) {
  WireWriter w;
  w.PutF64(msg.cost);
  return w.TakeBuffer();
}

Status DecodeQueryResponse(std::string_view payload, QueryResponseMsg* out) {
  WireReader r(payload);
  if (!r.ReadF64(&out->cost)) return Malformed("query response truncated");
  return ExpectExhausted(r);
}

std::string EncodeUpdateRequest(const UpdateRequestMsg& msg) {
  WireWriter w;
  w.PutU8(static_cast<uint8_t>(msg.update.kind));
  w.PutU32(msg.update.src);
  w.PutU32(msg.update.dst);
  w.PutF64(msg.update.weight);
  w.PutU8(msg.update.target.has_value() ? 1 : 0);
  w.PutU32(msg.update.target.value_or(0));
  return w.TakeBuffer();
}

Status DecodeUpdateRequest(std::string_view payload, UpdateRequestMsg* out) {
  WireReader r(payload);
  uint8_t kind = 0, has_target = 0;
  uint32_t target = 0;
  if (!r.ReadU8(&kind) || !r.ReadU32(&out->update.src) ||
      !r.ReadU32(&out->update.dst) || !r.ReadF64(&out->update.weight) ||
      !r.ReadU8(&has_target) || !r.ReadU32(&target)) {
    return Malformed("update request truncated");
  }
  if (kind > static_cast<uint8_t>(EdgeUpdate::Kind::kReweight)) {
    return Malformed("unknown update kind");
  }
  if (has_target > 1) return Malformed("bad target flag");
  out->update.kind = static_cast<EdgeUpdate::Kind>(kind);
  out->update.target =
      has_target ? std::optional<FragmentId>(target) : std::nullopt;
  return ExpectExhausted(r);
}

std::string EncodeUpdateResponse(const UpdateResponseMsg& msg) {
  WireWriter w;
  w.PutU64(msg.epoch);
  return w.TakeBuffer();
}

Status DecodeUpdateResponse(std::string_view payload, UpdateResponseMsg* out) {
  WireReader r(payload);
  if (!r.ReadU64(&out->epoch)) return Malformed("update response truncated");
  return ExpectExhausted(r);
}

std::string EncodeErrorResponse(const ErrorResponseMsg& msg) {
  WireWriter w;
  w.PutU8(static_cast<uint8_t>(msg.code));
  w.PutU32(static_cast<uint32_t>(msg.message.size()));
  w.PutBytes(msg.message);
  return w.TakeBuffer();
}

Status DecodeErrorResponse(std::string_view payload, ErrorResponseMsg* out) {
  WireReader r(payload);
  uint8_t code = 0;
  uint32_t len = 0;
  if (!r.ReadU8(&code) || !r.ReadU32(&len)) {
    return Malformed("error response truncated");
  }
  if (!r.ReadBytes(len, &out->message)) {
    return Malformed("error message exceeds payload");
  }
  // An unknown code from a newer peer degrades to kInternal instead of
  // failing the decode: the reply is still a well-formed error.
  out->code = code > static_cast<uint8_t>(StatusCode::kIOError)
                  ? StatusCode::kInternal
                  : static_cast<StatusCode>(code);
  return ExpectExhausted(r);
}

}  // namespace tcf
