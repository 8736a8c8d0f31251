// Payload codecs of the tcfrag wire protocol: the request/response structs
// that travel inside frames (net/frame.h) and their encode/decode
// functions. Decoders are fully defensive — they parse hostile bytes with
// the bounds-checked WireReader, validate every enum and count against its
// domain, and require the payload to be consumed EXACTLY (trailing bytes
// are an error: a frame that frames more than its message is malformed).
// A decode failure is a clean Status and fails only the one request that
// carried it.
#pragma once

#include <string>
#include <string_view>

#include "dsa/batch.h"
#include "dsa/maintenance.h"
#include "util/status.h"

namespace tcf {

// ------------------------------------------------------------ client <-> daemon

/// One pipelined shortest-path request. `kind` is carried for protocol
/// evolution; the daemon currently serves kCost (others fail cleanly).
struct QueryRequestMsg {
  NodeId from = 0;
  NodeId to = 0;
  QueryKind kind = QueryKind::kCost;

  bool operator==(const QueryRequestMsg&) const = default;
};

struct QueryResponseMsg {
  Weight cost = kInfinity;

  bool operator==(const QueryResponseMsg&) const = default;
};

struct UpdateRequestMsg {
  EdgeUpdate update;
};

struct UpdateResponseMsg {
  uint64_t epoch = 0;

  bool operator==(const UpdateResponseMsg&) const = default;
};

/// A clean failure reply: the StatusCode plus a bounded human-readable
/// message. Request-scoped when it echoes the failed request id;
/// connection-scoped (the peer will close after sending) when the request
/// id is 0 — header-level garbage has no trustworthy id to echo.
struct ErrorResponseMsg {
  StatusCode code = StatusCode::kInternal;
  std::string message;

  bool operator==(const ErrorResponseMsg&) const = default;

  Status ToStatus() const;
};

std::string EncodeQueryRequest(const QueryRequestMsg& msg);
Status DecodeQueryRequest(std::string_view payload, QueryRequestMsg* out);

std::string EncodeQueryResponse(const QueryResponseMsg& msg);
Status DecodeQueryResponse(std::string_view payload, QueryResponseMsg* out);

std::string EncodeUpdateRequest(const UpdateRequestMsg& msg);
Status DecodeUpdateRequest(std::string_view payload, UpdateRequestMsg* out);

std::string EncodeUpdateResponse(const UpdateResponseMsg& msg);
Status DecodeUpdateResponse(std::string_view payload, UpdateResponseMsg* out);

std::string EncodeErrorResponse(const ErrorResponseMsg& msg);
Status DecodeErrorResponse(std::string_view payload, ErrorResponseMsg* out);

}  // namespace tcf
