#ifndef VQDR_BASE_STATUS_H_
#define VQDR_BASE_STATUS_H_

#include <optional>
#include <string>
#include <utility>

#include "base/check.h"

namespace vqdr {

// Minimal error-reporting types. The library does not use exceptions
// (following the Google style guide); fallible public entry points (parsers,
// budgeted searches) return Status or StatusOr<T>.

/// Machine-readable classification of an error, so callers can distinguish
/// misuse (kInvalidArgument) from a budget stop (kResourceExhausted), an
/// external cancellation (kCancelled) and an engine-internal failure
/// (kInternal) without parsing the message.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kResourceExhausted,
  kCancelled,
  kInternal,
  kUnknown,
};

/// The canonical short name of a code ("OK", "INVALID_ARGUMENT", ...).
inline const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case StatusCode::kCancelled:
      return "CANCELLED";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kUnknown:
      return "UNKNOWN";
  }
  return "UNKNOWN";
}

/// A success-or-error value carrying a code and a human-readable message on
/// error.
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  /// Constructs an error status with the given message and code
  /// (kUnknown when the caller has nothing more precise to say).
  static Status Error(std::string message,
                      StatusCode code = StatusCode::kUnknown) {
    Status s;
    s.message_ = std::move(message);
    s.code_ = code == StatusCode::kOk ? StatusCode::kUnknown : code;
    return s;
  }

  /// The caller passed something malformed (parse errors, bad options).
  static Status InvalidArgument(std::string message) {
    return Error(std::move(message), StatusCode::kInvalidArgument);
  }

  /// A budget (deadline, steps, memory) stopped the call before completion.
  static Status ResourceExhausted(std::string message) {
    return Error(std::move(message), StatusCode::kResourceExhausted);
  }

  /// The caller asked the call to stop (Budget::Cancel()).
  static Status Cancelled(std::string message) {
    return Error(std::move(message), StatusCode::kCancelled);
  }

  /// An invariant broke inside the library (captured task exception,
  /// injected fault, allocation failure).
  static Status Internal(std::string message) {
    return Error(std::move(message), StatusCode::kInternal);
  }

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }

  StatusCode code() const { return code_; }

  /// The error message; empty for OK statuses.
  const std::string& message() const { return message_; }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Holds either a value of type T or an error Status.
template <typename T>
class StatusOr {
 public:
  /// Implicit from value so `return value;` works in functions returning
  /// StatusOr<T>.
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT

  /// Implicit from an error status.
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    VQDR_CHECK(!status_.ok()) << "StatusOr constructed from OK status";
  }

  bool ok() const { return value_.has_value(); }

  const Status& status() const { return status_; }

  /// The contained value; the StatusOr must be OK.
  const T& value() const& {
    VQDR_CHECK(ok()) << "value() on error StatusOr: " << status_.message();
    return *value_;
  }

  T& value() & {
    VQDR_CHECK(ok()) << "value() on error StatusOr: " << status_.message();
    return *value_;
  }

  T&& value() && {
    VQDR_CHECK(ok()) << "value() on error StatusOr: " << status_.message();
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace vqdr

#endif  // VQDR_BASE_STATUS_H_
