// Lightweight Status / Result error handling in the style used by database
// engines (Arrow, RocksDB): recoverable errors travel as values, never as
// exceptions, and programming errors are caught by TCF_CHECK.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

namespace tcf {

/// Error categories used across the library.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kInternal,
  kIOError,
};

/// Human-readable name of a StatusCode.
inline const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "InvalidArgument";
    case StatusCode::kNotFound: return "NotFound";
    case StatusCode::kOutOfRange: return "OutOfRange";
    case StatusCode::kFailedPrecondition: return "FailedPrecondition";
    case StatusCode::kInternal: return "Internal";
    case StatusCode::kIOError: return "IOError";
  }
  return "Unknown";
}

/// A success-or-error value. Cheap to copy on the success path (no
/// allocation), carries a message on the error path.
class Status {
 public:
  Status() = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const {
    if (ok()) return "OK";
    std::string out = StatusCodeName(code_);
    out += ": ";
    out += message_;
    return out;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// A value-or-error: either holds a T or a non-OK Status.
template <typename T>
class Result {
 public:
  /*implicit*/ Result(T value) : value_(std::move(value)) {}
  /*implicit*/ Result(Status status) : status_(std::move(status)) {}

  bool ok() const { return value_.has_value(); }
  /// OK when a value is held, so TCF_RETURN_NOT_OK(r.status()) passes a
  /// success through.
  const Status& status() const { return status_; }

  /// Access the contained value. Aborts if !ok(); check ok() first or use
  /// ValueOrDie semantics deliberately.
  T& value() & {
    CheckHasValue();
    return *value_;
  }
  const T& value() const& {
    CheckHasValue();
    return *value_;
  }
  T&& value() && {
    CheckHasValue();
    return std::move(*value_);
  }

  T value_or(T fallback) const {
    return value_.has_value() ? *value_ : std::move(fallback);
  }

 private:
  void CheckHasValue() const {
    if (!value_.has_value()) {
      std::fprintf(stderr, "Result accessed without value: %s\n",
                   status_.ToString().c_str());
      std::abort();
    }
  }

  std::optional<T> value_;
  Status status_;  // default-constructed: OK
};

namespace internal {

[[noreturn]] inline void CheckFailed(const char* file, int line,
                                     const char* expr,
                                     const std::string& extra) {
  std::fprintf(stderr, "%s:%d: TCF_CHECK(%s) failed%s%s\n", file, line, expr,
               extra.empty() ? "" : ": ", extra.c_str());
  std::abort();
}

}  // namespace internal

}  // namespace tcf

/// Invariant check for programming errors; always on (the library is a
/// research artifact — we prefer loud failure over silent corruption).
#define TCF_CHECK(expr)                                                \
  do {                                                                 \
    if (!(expr)) {                                                     \
      ::tcf::internal::CheckFailed(__FILE__, __LINE__, #expr, "");     \
    }                                                                  \
  } while (0)

#define TCF_CHECK_MSG(expr, msg)                                       \
  do {                                                                 \
    if (!(expr)) {                                                     \
      std::ostringstream tcf_check_os_;                                \
      tcf_check_os_ << msg;                                            \
      ::tcf::internal::CheckFailed(__FILE__, __LINE__, #expr,          \
                                   tcf_check_os_.str());               \
    }                                                                  \
  } while (0)

/// Propagate a non-OK Status from the current function.
#define TCF_RETURN_NOT_OK(expr)                  \
  do {                                           \
    ::tcf::Status tcf_status_ = (expr);          \
    if (!tcf_status_.ok()) return tcf_status_;   \
  } while (0)
