#ifndef VQDR_SVC_PROTO_H_
#define VQDR_SVC_PROTO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "guard/budget.h"
#include "guard/outcome.h"
#include "obs/metrics.h"

// The vqdr-serve wire protocol (DESIGN.md §13): line-delimited JSON over a
// local stream socket. One request object per line in, one response object
// per line out, same order. A request names an operation from the service's
// registry plus its payload and (optionally) its governance envelope:
//
//   {"op":"determinacy","id":1,"tenant":"gold","deadline_ms":500,
//    "views":["V1(x) :- R(x, y)"],"query":"Q(x) :- R(x, y)"}
//
// Responses always carry "ok"; successful engine responses carry the
// guard::Outcome that governed the run ("outcome") and an engine-derived
// "result" object, rejections carry a stable "code" plus, for backpressure
// ("overloaded"/"draining"), a "retry_after_ms" hint. A stopped budget is
// not an error: ok stays true, the outcome tags the exact computed prefix,
// and verdict fields appear only where they are trustworthy.

namespace vqdr::svc {

/// Hard cap on one request frame. Longer lines are rejected with code
/// "frame_too_large" and the connection resyncs at the next newline.
inline constexpr std::size_t kMaxRequestBytes = 1 << 20;

/// One (views, query) pair of a batch request, with optional per-item
/// sub-budget caps (tightened under the batch envelope).
struct BatchItem {
  std::vector<std::string> views;
  std::string query;
  guard::BudgetSpec budget;
};

/// A parsed request frame. ParseRequest validates shape (types, caps), not
/// per-operation field presence — handlers own that.
struct Request {
  /// Registry key: "parse", "containment", "chase", "determinacy", "batch",
  /// or a control operation ("health", "metrics", "ops", "stats").
  std::string op;

  /// Client correlation id, echoed verbatim: the original JSON scalar
  /// re-serialized ("" = absent).
  std::string id;

  /// Budget-class name for admission control ("" = the "default" class).
  std::string tenant;

  /// Requested governance envelope, from "deadline_ms" / "max_steps" /
  /// "max_atoms" / "max_chase_levels". Tightened against the tenant class
  /// cap at admission; the deadline is armed at admission, so it covers the
  /// whole handler run (that is the point of client deadline propagation).
  guard::BudgetSpec budget;

  // Operation payloads (strings are engine-surface text, parsed by the
  // handler with a per-request NamePool so results replay byte-identically).
  std::string kind;                 // parse/containment: "cq"|"ucq"|"instance"
  std::string text;                 // parse: the text to parse
  std::string schema;               // "R/2 P/1" (chase, parse kind=instance)
  std::vector<std::string> views;   // chase/determinacy: CQ rules
  std::string query;                // chase/determinacy: CQ rule
  std::string q1, q2;               // containment operands
  int levels = 0;                   // chase: levels to build
  std::vector<BatchItem> items;     // batch
};

/// Parses one request line. Errors carry a message suitable for the
/// "bad_request" response; oversized frames fail before JSON parsing.
StatusOr<Request> ParseRequest(std::string_view line);

/// One response frame, serialized by SerializeResponse.
struct Response {
  std::string id;  // echoed request id (pre-serialized JSON, "" = omit)
  bool ok = true;

  /// Rejection code when !ok: "bad_request", "unknown_op", "overloaded",
  /// "draining", "frame_too_large", "internal".
  std::string code;
  std::string error;

  bool has_outcome = false;
  guard::Outcome outcome = guard::Outcome::kComplete;

  /// Backpressure hint for "overloaded"/"draining" rejections.
  bool has_retry = false;
  std::uint64_t retry_after_ms = 0;

  /// Serialized JSON object holding only engine-derived content — the
  /// byte-identity surface the soak test compares against direct calls.
  std::string result_json;

  /// Service-side wall time (admission to completion); outside result_json
  /// so byte-identity is not broken by timing.
  bool has_elapsed = false;
  std::uint64_t elapsed_us = 0;
};

/// Renders the response as one JSON object (no trailing newline). Field
/// order is fixed: id?, ok, code?, error?, outcome?, retry_after_ms?,
/// result?, elapsed_us?.
std::string SerializeResponse(const Response& r);

/// A !ok response with the given code/message (no retry hint).
Response ErrorResponse(std::string code, std::string message);

/// Appends `s` as a double-quoted JSON string (escapes ", \, control): the
/// obs escaper, under the protocol's name.
inline void AppendJson(std::string_view s, std::string* out) {
  obs::internal::AppendJsonString(s, out);
}

}  // namespace vqdr::svc

#endif  // VQDR_SVC_PROTO_H_
