#include "svc/proto.h"

#include <limits>
#include <optional>
#include <utility>

#include "obs/json.h"

namespace vqdr::svc {

namespace {

using obs::json::Value;

/// Re-serializes a scalar id for verbatim echoing. Strings and integers
/// cover every sane client; anything else is rejected so the echo can never
/// smuggle unvalidated JSON back out.
StatusOr<std::string> SerializeId(const Value& v) {
  if (v.IsString()) {
    std::string out;
    AppendJson(v.string_value, &out);
    return out;
  }
  if (v.IsNumber() && v.is_int) return std::to_string(v.int_value);
  return Status::InvalidArgument("\"id\" must be a string or an integer");
}

StatusOr<std::string> StringField(const Value& obj, std::string_view key) {
  const Value* v = obj.Find(key);
  if (v == nullptr) return std::string();
  if (!v->IsString()) {
    return Status::InvalidArgument("\"" + std::string(key) +
                                   "\" must be a string");
  }
  return v->string_value;
}

StatusOr<std::vector<std::string>> StringArrayField(const Value& obj,
                                                    std::string_view key) {
  const Value* v = obj.Find(key);
  std::vector<std::string> out;
  if (v == nullptr) return out;
  if (!v->IsArray()) {
    return Status::InvalidArgument("\"" + std::string(key) +
                                   "\" must be an array of strings");
  }
  out.reserve(v->array.size());
  for (const Value& e : v->array) {
    if (!e.IsString()) {
      return Status::InvalidArgument("\"" + std::string(key) +
                                     "\" must be an array of strings");
    }
    out.push_back(e.string_value);
  }
  return out;
}

Status ReadBudgetFields(const Value& obj, guard::BudgetSpec* spec) {
  struct IntField {
    const char* key;
    std::int64_t max;  // the largest value the BudgetSpec field holds
  };
  constexpr std::int64_t kAny = std::numeric_limits<std::int64_t>::max();
  static constexpr IntField kFields[] = {
      {"deadline_ms", kAny},
      {"max_steps", kAny},
      {"max_atoms", kAny},
      {"max_chase_levels", std::numeric_limits<int>::max()},
  };
  for (const IntField& f : kFields) {
    const Value* v = obj.Find(f.key);
    if (v == nullptr) continue;
    if (!v->IsNumber() || !v->is_int || v->int_value < 0) {
      return Status::InvalidArgument("\"" + std::string(f.key) +
                                     "\" must be a non-negative integer");
    }
    if (v->int_value > f.max) {
      return Status::InvalidArgument("\"" + std::string(f.key) +
                                     "\" must be at most " +
                                     std::to_string(f.max));
    }
    std::int64_t n = v->int_value;
    if (std::string_view(f.key) == "deadline_ms") {
      spec->wall_ms = n;
    } else if (std::string_view(f.key) == "max_steps") {
      spec->max_steps = static_cast<std::uint64_t>(n);
    } else if (std::string_view(f.key) == "max_atoms") {
      spec->max_atoms = static_cast<std::uint64_t>(n);
    } else {
      spec->max_chase_levels = static_cast<int>(n);
    }
  }
  return Status::Ok();
}

/// Reads the budget fields of `obj` into `spec` — flat ("max_steps": 10 on
/// the object itself) or grouped under a nested "budget" object; the nested
/// form wins field by field. Negative counts are rejected; absent fields
/// leave the spec's "unlimited" defaults.
Status ReadBudgetSpec(const Value& obj, guard::BudgetSpec* spec) {
  if (Status s = ReadBudgetFields(obj, spec); !s.ok()) return s;
  if (const Value* nested = obj.Find("budget")) {
    if (!nested->IsObject()) {
      return Status::InvalidArgument("\"budget\" must be an object");
    }
    if (Status s = ReadBudgetFields(*nested, spec); !s.ok()) return s;
  }
  return Status::Ok();
}

}  // namespace

StatusOr<Request> ParseRequest(std::string_view line) {
  if (line.size() > kMaxRequestBytes) {
    return Status::InvalidArgument("request frame exceeds " +
                                   std::to_string(kMaxRequestBytes) +
                                   " bytes");
  }
  std::string error;
  std::optional<Value> doc = obs::json::Parse(line, &error);
  if (!doc.has_value()) {
    return Status::InvalidArgument("malformed JSON: " + error);
  }
  if (!doc->IsObject()) {
    return Status::InvalidArgument("request must be a JSON object");
  }

  Request req;
  const Value* op = doc->Find("op");
  if (op == nullptr || !op->IsString() || op->string_value.empty()) {
    return Status::InvalidArgument("\"op\" (string) is required");
  }
  req.op = op->string_value;

  if (const Value* id = doc->Find("id")) {
    StatusOr<std::string> s = SerializeId(*id);
    if (!s.ok()) return s.status();
    req.id = std::move(s).value();
  }

  StatusOr<std::string> tenant = StringField(*doc, "tenant");
  if (!tenant.ok()) return tenant.status();
  req.tenant = std::move(tenant).value();

  if (Status s = ReadBudgetSpec(*doc, &req.budget); !s.ok()) return s;

  const std::pair<const char*, std::string*> string_fields[] = {
      {"kind", &req.kind},     {"text", &req.text}, {"schema", &req.schema},
      {"query", &req.query},   {"q1", &req.q1},     {"q2", &req.q2},
  };
  for (auto& [key, dst] : string_fields) {
    StatusOr<std::string> s = StringField(*doc, key);
    if (!s.ok()) return s.status();
    *dst = std::move(s).value();
  }

  StatusOr<std::vector<std::string>> views = StringArrayField(*doc, "views");
  if (!views.ok()) return views.status();
  req.views = std::move(views).value();

  if (const Value* levels = doc->Find("levels")) {
    if (!levels->IsNumber() || !levels->is_int || levels->int_value < 0 ||
        levels->int_value > 64) {
      return Status::InvalidArgument("\"levels\" must be an integer in 0..64");
    }
    req.levels = static_cast<int>(levels->int_value);
  }

  if (const Value* items = doc->Find("items")) {
    if (!items->IsArray()) {
      return Status::InvalidArgument("\"items\" must be an array of objects");
    }
    req.items.reserve(items->array.size());
    for (const Value& e : items->array) {
      if (!e.IsObject()) {
        return Status::InvalidArgument(
            "\"items\" must be an array of objects");
      }
      BatchItem item;
      StatusOr<std::vector<std::string>> iv = StringArrayField(e, "views");
      if (!iv.ok()) return iv.status();
      item.views = std::move(iv).value();
      StatusOr<std::string> iq = StringField(e, "query");
      if (!iq.ok()) return iq.status();
      item.query = std::move(iq).value();
      if (Status s = ReadBudgetSpec(e, &item.budget); !s.ok()) return s;
      req.items.push_back(std::move(item));
    }
  }

  return req;
}

std::string SerializeResponse(const Response& r) {
  std::string out;
  out.push_back('{');
  if (!r.id.empty()) {
    out.append("\"id\":");
    out.append(r.id);  // pre-serialized scalar
    out.push_back(',');
  }
  out.append(r.ok ? "\"ok\":true" : "\"ok\":false");
  if (!r.code.empty()) {
    out.append(",\"code\":");
    AppendJson(r.code, &out);
  }
  if (!r.error.empty()) {
    out.append(",\"error\":");
    AppendJson(r.error, &out);
  }
  if (r.has_outcome) {
    out.append(",\"outcome\":");
    AppendJson(guard::OutcomeName(r.outcome), &out);
  }
  if (r.has_retry) {
    out.append(",\"retry_after_ms\":");
    out.append(std::to_string(r.retry_after_ms));
  }
  if (!r.result_json.empty()) {
    out.append(",\"result\":");
    out.append(r.result_json);
  }
  if (r.has_elapsed) {
    out.append(",\"elapsed_us\":");
    out.append(std::to_string(r.elapsed_us));
  }
  out.push_back('}');
  return out;
}

Response ErrorResponse(std::string code, std::string message) {
  Response r;
  r.ok = false;
  r.code = std::move(code);
  r.error = std::move(message);
  return r;
}

}  // namespace vqdr::svc
