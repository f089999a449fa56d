#include "svc/service.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <utility>

#include "base/string_util.h"
#include "chase/chain.h"
#include "core/determinacy.h"
#include "cq/containment.h"
#include "cq/parser.h"
#include "guard/fault.h"
#include "memo/memo.h"
#include "memo/snapshot.h"
#include "memo/store.h"
#include "obs/export.h"
#include "obs/registry.h"
#include "obs/watchdog.h"

namespace vqdr::svc {

namespace {

Response OkResponse(guard::Outcome outcome, std::string result_json) {
  Response r;
  r.has_outcome = true;
  r.outcome = outcome;
  r.result_json = std::move(result_json);
  return r;
}

// A handler exception, captured: ok=false/"internal", outcome INTERNAL_ERROR.
Response InternalError(std::string message) {
  Response r = ErrorResponse("internal", std::move(message));
  r.has_outcome = true;
  r.outcome = guard::Outcome::kInternalError;
  return r;
}

}  // namespace

Status BuildScenario(const std::string& schema,
                     const std::vector<std::string>& views,
                     const std::string& query, Scenario* out) {
  for (const std::string& piece : Split(schema, ' ')) {
    std::string_view decl = StripWhitespace(piece);
    if (decl.empty()) continue;
    std::size_t slash = decl.find('/');
    if (slash == std::string_view::npos || slash == 0) {
      return Status::InvalidArgument(
          "schema entries look like Name/arity: " + std::string(decl));
    }
    std::string_view digits = decl.substr(slash + 1);
    const char* last = digits.data() + digits.size();
    int arity = -1;
    auto [end, ec] = std::from_chars(digits.data(), last, arity);
    if (ec != std::errc() || end != last || arity < 0 || arity > 32) {
      return Status::InvalidArgument("schema arity must be in 0..32: " +
                                     std::string(decl));
    }
    std::string name(decl.substr(0, slash));
    if (out->schema.Contains(name)) {
      return Status::InvalidArgument("duplicate schema relation: " + name);
    }
    out->schema.Add(std::move(name), arity);
  }
  for (const std::string& text : views) {
    StatusOr<ConjunctiveQuery> v = ParseCq(text, out->pool);
    if (!v.ok()) {
      return Status::InvalidArgument("view: " + v.status().message());
    }
    if (!v->IsPureCq()) {
      return Status::InvalidArgument("views must be pure CQs: " + text);
    }
    std::string name = v->head_name();
    out->views.Add(std::move(name), Query::FromCq(std::move(v).value()));
  }
  if (!query.empty()) {
    StatusOr<ConjunctiveQuery> q = ParseCq(query, out->pool);
    if (!q.ok()) {
      return Status::InvalidArgument("query: " + q.status().message());
    }
    if (!q->IsPureCq()) {
      return Status::InvalidArgument("the query must be a pure CQ");
    }
    out->query = std::move(q).value();
    if (out->schema.decls().empty()) out->schema = out->query->BodySchema();
  }
  return Status::Ok();
}

std::string DeterminacyResultJson(const UnrestrictedDeterminacyResult& result,
                                  const NamePool& pool) {
  std::string out;
  out.push_back('{');
  // The verdict appears only when it is trustworthy — a stopped decision
  // reports its prefix, never a fabricated answer.
  if (guard::IsComplete(result.outcome)) {
    out.append("\"determined\":");
    out.append(result.determined ? "true" : "false");
    out.push_back(',');
  }
  out.append("\"view_image_atoms\":");
  out.append(std::to_string(result.canonical_view_image.TupleCount()));
  out.append(",\"chase_inverse_atoms\":");
  out.append(std::to_string(result.chase_inverse.TupleCount()));
  if (result.canonical_rewriting.has_value()) {
    out.append(",\"rewriting\":");
    AppendJson(CqToString(*result.canonical_rewriting, pool), &out);
  }
  out.push_back('}');
  return out;
}

std::string ContainmentResultJson(const ContainmentResult& result) {
  std::string out;
  out.push_back('{');
  // contained==false is definitive under any outcome (a witness of
  // non-containment was found); contained==true needs a complete sweep.
  // patterns_checked is deliberately absent: it is work telemetry, not a
  // semantic field, and a memo hit replays it as 0 — including it would
  // break the cold-vs-warm byte-identity of served results.
  if (guard::IsComplete(result.outcome) || !result.contained) {
    out.append("\"contained\":");
    out.append(result.contained ? "true" : "false");
  }
  out.push_back('}');
  return out;
}

std::string ChaseResultJson(const ChaseChain& chain, const NamePool& pool) {
  std::string out;
  out.push_back('{');
  out.append("\"levels_built\":");
  out.append(std::to_string(chain.d.size()));
  out.append(",\"levels\":[");
  for (std::size_t k = 0; k < chain.d.size(); ++k) {
    if (k > 0) out.push_back(',');
    out.append("{\"d\":");
    out.append(std::to_string(chain.d[k].TupleCount()));
    out.append(",\"s\":");
    out.append(std::to_string(chain.s[k].TupleCount()));
    out.append(",\"s_prime\":");
    out.append(std::to_string(chain.s_prime[k].TupleCount()));
    out.append(",\"d_prime\":");
    out.append(std::to_string(chain.d_prime[k].TupleCount()));
    out.push_back('}');
  }
  out.push_back(']');
  if (!chain.d_prime.empty()) {
    // Final D'_k in the re-parseable fact-list format (round-trips through
    // ParseInstance; chase-minted nulls print as quoted '#id' constants).
    out.append(",\"d_prime_final\":");
    AppendJson(InstanceToString(chain.d_prime.back(), pool), &out);
  }
  out.push_back('}');
  return out;
}

namespace {

// ---- admitted (engine) handlers -----------------------------------------

Response HandleParse(const Request& req, guard::Budget& budget) {
  if (budget.Checkpoint() != guard::Outcome::kComplete) {
    return OkResponse(budget.stop_reason(), "{}");
  }
  NamePool pool;
  std::string kind = req.kind.empty() ? "cq" : req.kind;
  std::string canonical;
  if (kind == "cq") {
    StatusOr<ConjunctiveQuery> q = ParseCq(req.text, pool);
    if (!q.ok()) return ErrorResponse("parse_error", q.status().message());
    canonical = CqToString(q.value(), pool);
  } else if (kind == "ucq") {
    StatusOr<UnionQuery> q = ParseUcq(req.text, pool);
    if (!q.ok()) return ErrorResponse("parse_error", q.status().message());
    canonical = UcqToString(q.value(), pool);
  } else if (kind == "instance") {
    Scenario sc;
    if (Status s = BuildScenario(req.schema, {}, "", &sc); !s.ok()) {
      return ErrorResponse("bad_request", s.message());
    }
    StatusOr<Instance> inst = ParseInstance(req.text, sc.schema, pool);
    if (!inst.ok()) {
      return ErrorResponse("parse_error", inst.status().message());
    }
    canonical = InstanceToString(inst.value(), pool);
  } else {
    return ErrorResponse("bad_request",
                         "\"kind\" must be \"cq\", \"ucq\" or \"instance\"");
  }
  std::string result;
  result.append("{\"canonical\":");
  AppendJson(canonical, &result);
  result.push_back('}');
  return OkResponse(guard::Outcome::kComplete, std::move(result));
}

Response HandleContainment(const Request& req, guard::Budget& budget) {
  if (req.q1.empty() || req.q2.empty()) {
    return ErrorResponse("bad_request",
                         "containment requires \"q1\" and \"q2\"");
  }
  NamePool pool;
  CqContainmentOptions options;
  options.budget = &budget;
  ContainmentResult result;
  if (req.kind == "ucq") {
    StatusOr<UnionQuery> q1 = ParseUcq(req.q1, pool);
    if (!q1.ok()) return ErrorResponse("parse_error", q1.status().message());
    StatusOr<UnionQuery> q2 = ParseUcq(req.q2, pool);
    if (!q2.ok()) return ErrorResponse("parse_error", q2.status().message());
    result = UcqContainedInGoverned(q1.value(), q2.value(), options);
  } else if (req.kind.empty() || req.kind == "cq") {
    StatusOr<ConjunctiveQuery> q1 = ParseCq(req.q1, pool);
    if (!q1.ok()) return ErrorResponse("parse_error", q1.status().message());
    StatusOr<ConjunctiveQuery> q2 = ParseCq(req.q2, pool);
    if (!q2.ok()) return ErrorResponse("parse_error", q2.status().message());
    result = CqContainedInGoverned(q1.value(), q2.value(), options);
  } else {
    return ErrorResponse("bad_request",
                         "\"kind\" must be \"cq\" or \"ucq\"");
  }
  return OkResponse(result.outcome, ContainmentResultJson(result));
}

Response HandleChase(const Request& req, guard::Budget& budget) {
  Scenario sc;
  if (Status s = BuildScenario(req.schema, req.views, req.query, &sc);
      !s.ok()) {
    return ErrorResponse("bad_request", s.message());
  }
  if (!sc.query.has_value() || sc.views.empty()) {
    return ErrorResponse("bad_request",
                         "chase requires \"views\" and \"query\"");
  }
  ChaseChainOptions options;
  options.levels = req.levels;
  options.budget = &budget;
  ValueFactory factory(sc.pool.MaxId());
  ChaseChain chain = BuildChaseChain(sc.views, *sc.query, options, factory);
  return OkResponse(chain.outcome, ChaseResultJson(chain, sc.pool));
}

Response HandleDeterminacy(const Request& req, guard::Budget& budget) {
  Scenario sc;
  if (Status s = BuildScenario(req.schema, req.views, req.query, &sc);
      !s.ok()) {
    return ErrorResponse("bad_request", s.message());
  }
  if (!sc.query.has_value() || sc.views.empty()) {
    return ErrorResponse("bad_request",
                         "determinacy requires \"views\" and \"query\"");
  }
  UnrestrictedDeterminacyResult result =
      DecideUnrestrictedDeterminacy(sc.views, *sc.query, &budget);
  return OkResponse(result.outcome, DeterminacyResultJson(result, sc.pool));
}

// The batch handler is the budget-composition showcase: the request budget
// is the shared envelope, each item runs under a child budget (per-item caps
// tightened, envelope charged through the parent link), and once the
// envelope trips the remaining items are skipped with its stop reason — an
// exact prefix, per item, never a guess.
Response HandleBatch(const Request& req, guard::Budget& envelope) {
  if (req.items.empty()) {
    return ErrorResponse("bad_request", "batch requires \"items\"");
  }
  std::string result;
  result.append("{\"items\":[");
  guard::Outcome merged = guard::Outcome::kComplete;
  std::size_t completed = 0;
  for (std::size_t i = 0; i < req.items.size(); ++i) {
    if (i > 0) result.push_back(',');
    const BatchItem& item = req.items[i];
    if (envelope.Stopped()) {
      guard::Outcome o = envelope.stop_reason();
      merged = guard::MergeOutcome(merged, o);
      result.append("{\"outcome\":");
      AppendJson(guard::OutcomeName(o), &result);
      result.append(",\"skipped\":true}");
      continue;
    }
    Scenario sc;
    Status s = BuildScenario("", item.views, item.query, &sc);
    if (s.ok() && (!sc.query.has_value() || sc.views.empty())) {
      s = Status::InvalidArgument("item requires \"views\" and \"query\"");
    }
    if (!s.ok()) {
      merged = guard::MergeOutcome(merged, guard::Outcome::kInternalError);
      result.append("{\"error\":");
      AppendJson(s.message(), &result);
      result.push_back('}');
      continue;
    }
    guard::Budget child(item.budget, &envelope);
    UnrestrictedDeterminacyResult r =
        DecideUnrestrictedDeterminacy(sc.views, *sc.query, &child);
    merged = guard::MergeOutcome(merged, r.outcome);
    if (guard::IsComplete(r.outcome)) ++completed;
    result.append("{\"outcome\":");
    AppendJson(guard::OutcomeName(r.outcome), &result);
    result.push_back(',');
    // Splice the per-item object fields after the outcome.
    std::string item_json = DeterminacyResultJson(r, sc.pool);
    result.append(item_json, 1, item_json.size() - 1);
  }
  result.append("],\"items_completed\":");
  result.append(std::to_string(completed));
  result.push_back('}');
  return OkResponse(merged, std::move(result));
}

}  // namespace

// ---- service core --------------------------------------------------------

Service::Service(ServiceOptions options) : options_(std::move(options)) {
  if (options_.enable_memo) memo::SetEnabled(true);
  metrics_baseline_ = obs::SnapshotMetrics();
  if (options_.enable_memo) {
    const char* env = std::getenv("VQDR_MEMO_SNAPSHOT");
    memo_snapshot_path_ = options_.memo_snapshot_path;
    if (memo_snapshot_path_.empty() && env != nullptr) {
      memo_snapshot_path_ = env;
    }
    if (!memo_snapshot_path_.empty()) {
      // The first GlobalStore() touch runs the VQDR_MEMO_SNAPSHOT boot load;
      // an explicit option path that differs is loaded on top of it.
      memo::Store& store = memo::GlobalStore();
      if (env == nullptr || memo_snapshot_path_ != env) {
        memo::LoadSnapshot(store, memo_snapshot_path_);
      }
      memo_flusher_ = std::make_unique<memo::SnapshotFlusher>(
          store, memo_snapshot_path_, options_.memo_flush_ms);
    }
  }
  RegisterBuiltinOps();
  if (options_.cancel_stalled) {
    // The hook fires on the watchdog thread with the stalled op's identity;
    // cancelling that request's budget makes the handler stop at its next
    // checkpoint, which completes the response and frees the slot. The
    // watchdog emits exactly one report per stall; we keep its JSON line.
    obs::SetStallCallback([this](const obs::StallReport& report) {
      std::shared_ptr<guard::Budget> budget;
      {
        std::lock_guard<std::mutex> lock(live_mu_);
        auto it = live_ops_.find(report.op.id);
        if (it != live_ops_.end()) budget = it->second;
      }
      std::string line = report.ToJson();
      line.push_back('\n');
      std::fwrite(line.data(), 1, line.size(), stderr);
      if (budget != nullptr) {
        budget->Cancel();
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.watchdog_cancels;
      }
    });
    stall_hook_installed_ = true;
  }
}

Service::~Service() {
  BeginDrain();
  if (stall_hook_installed_) obs::SetStallCallback(nullptr);
  // Every Handle call has returned by now, so the final snapshot flush sees
  // every install the requests made. This is the SIGTERM drain-then-exit
  // write.
  memo_flusher_.reset();
}

Status Service::FlushMemoSnapshot(std::string* result_json) {
  if (memo_flusher_ == nullptr) {
    return Status::InvalidArgument(
        "no memo snapshot configured (--memo-snapshot or "
        "VQDR_MEMO_SNAPSHOT)");
  }
  memo::SnapshotIoStats io;
  Status s = memo_flusher_->FlushNow(&io);
  if (!s.ok()) return s;
  if (result_json != nullptr) {
    std::string out;
    out.append("{\"path\":");
    AppendJson(memo_snapshot_path_, &out);
    out.append(",\"entries\":");
    out.append(std::to_string(io.entries));
    out.append(",\"skipped\":");
    out.append(std::to_string(io.skipped));
    out.append(",\"bytes\":");
    out.append(std::to_string(io.bytes));
    out.push_back('}');
    *result_json = std::move(out);
  }
  return Status::Ok();
}

ServiceStats Service::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

std::string Service::HandleLine(std::string_view line) {
  StatusOr<Request> req = ParseRequest(line);
  Response response;
  if (!req.ok()) {
    response = ErrorResponse(line.size() > kMaxRequestBytes
                                 ? "frame_too_large"
                                 : "bad_request",
                             req.status().message());
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.bad_requests;
  } else {
    response = Handle(req.value());
  }
  return SerializeResponse(response);
}

Response Service::Reject(const char* code, const Request& req,
                         std::uint64_t retry_after_ms) {
  Response r = ErrorResponse(code, std::string("request rejected: ") + code);
  r.id = req.id;
  r.has_retry = true;
  r.retry_after_ms = retry_after_ms;
  VQDR_COUNTER_INC("svc.rejected");
  std::lock_guard<std::mutex> lock(stats_mu_);
  if (std::string_view(code) == "draining") {
    ++stats_.rejected_draining;
  } else {
    ++stats_.rejected_overloaded;
  }
  return r;
}

Response Service::Handle(const Request& req) {
  const OpRegistry::Entry* entry = registry_.Find(req.op);
  if (entry == nullptr) {
    Response r = ErrorResponse("unknown_op", "unknown op \"" + req.op + "\"");
    r.id = req.id;
    return r;
  }
  if (entry->dispatch == Dispatch::kInline) {
    // Control plane: no admission — responsive under overload.
    guard::Budget unlimited;
    Response r = entry->handler(req, unlimited);
    r.id = req.id;
    return r;
  }
  if (draining()) {
    return Reject("draining", req, options_.retry_after_ms);
  }
  guard::BudgetClass& cls = classes_.Resolve(req.tenant);
  if (!cls.TryAcquire()) {
    return Reject("overloaded", req, cls.spec().retry_after_ms);
  }
  std::size_t now = in_flight_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (now > options_.queue_limit) {
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    cls.Release();
    return Reject("overloaded", req, options_.retry_after_ms);
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.accepted;
  }
  VQDR_COUNTER_INC("svc.accepted");
  std::uint64_t seq =
      next_request_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Built at admission, so the client's deadline_ms covers the whole run.
  // Shared with live_ops_, where the watchdog's stall hook may cancel it.
  auto budget = std::make_shared<guard::Budget>(cls.Grant(req.budget));
  std::uint64_t start_us = obs::TelemetryNowUs();
  Response r;
  {
    // Per-request op identity: a dynamic label under OpKind::kService, with
    // the request budget attached so heartbeats flow from its checkpoints
    // and the registry/watchdog can see its state.
    obs::OpScope op(obs::OpKind::kService,
                    "svc." + req.op + "#" + std::to_string(seq),
                    budget.get());
    if (op.id() != 0) {
      std::lock_guard<std::mutex> lock(live_mu_);
      live_ops_[op.id()] = budget;
    }
    try {
      VQDR_FAULT_TASK("svc.request");
      r = entry->handler(req, *budget);
    } catch (const std::exception& e) {
      r = InternalError(e.what());
    } catch (...) {
      r = InternalError("unknown handler exception");
    }
    if (op.id() != 0) {
      std::lock_guard<std::mutex> lock(live_mu_);
      live_ops_.erase(op.id());
    }
  }
  r.has_elapsed = true;
  r.elapsed_us = obs::TelemetryNowUs() - start_us;
  VQDR_HISTOGRAM_RECORD("svc.request.us", r.elapsed_us);
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  cls.Release();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.completed;
    if (!r.ok && r.code == "internal") ++stats_.internal_errors;
  }
  r.id = req.id;
  return r;
}

void Service::RegisterBuiltinOps() {
  registry_.Register("parse", Dispatch::kAdmitted, HandleParse);
  registry_.Register("containment", Dispatch::kAdmitted, HandleContainment);
  registry_.Register("chase", Dispatch::kAdmitted, HandleChase);
  registry_.Register("determinacy", Dispatch::kAdmitted, HandleDeterminacy);
  registry_.Register("batch", Dispatch::kAdmitted, HandleBatch);

  registry_.Register(
      "health", Dispatch::kInline,
      [this](const Request&, guard::Budget&) {
        std::string result;
        result.append("{\"status\":");
        AppendJson(draining() ? "draining" : "ok", &result);
        result.append(",\"in_flight\":");
        result.append(std::to_string(in_flight()));
        result.push_back('}');
        Response r;
        r.result_json = std::move(result);
        return r;
      });

  registry_.Register(
      "metrics", Dispatch::kInline,
      [this](const Request&, guard::Budget&) {
        // The Prometheus exposition is plain text; the JSON response wraps
        // it so line framing survives (vqdr-client --raw unwraps it).
        std::string body =
            obs::ExportPrometheusText(obs::SnapshotDelta(metrics_baseline_));
        std::string result;
        result.append("{\"content_type\":\"text/plain; version=0.0.4\",");
        result.append("\"body\":");
        AppendJson(body, &result);
        result.push_back('}');
        Response r;
        r.result_json = std::move(result);
        return r;
      });

  registry_.Register(
      "snapshot", Dispatch::kInline,
      [this](const Request&, guard::Budget&) {
        // Control plane (kInline): works during drain, so an operator can
        // force a flush right before stopping the process.
        std::string result;
        Status s = FlushMemoSnapshot(&result);
        if (!s.ok()) return ErrorResponse("no_snapshot", s.message());
        Response r;
        r.result_json = std::move(result);
        return r;
      });

  registry_.Register(
      "ops", Dispatch::kInline, [](const Request&, guard::Budget&) {
        std::string result;
        result.append("{\"ops\":");
        result.append(obs::OpsToJson(obs::SnapshotOps()));
        result.push_back('}');
        Response r;
        r.result_json = std::move(result);
        return r;
      });

  registry_.Register(
      "stats", Dispatch::kInline, [this](const Request&, guard::Budget&) {
        ServiceStats s = stats();
        std::string result;
        result.append("{\"accepted\":");
        result.append(std::to_string(s.accepted));
        result.append(",\"completed\":");
        result.append(std::to_string(s.completed));
        result.append(",\"rejected_overloaded\":");
        result.append(std::to_string(s.rejected_overloaded));
        result.append(",\"rejected_draining\":");
        result.append(std::to_string(s.rejected_draining));
        result.append(",\"internal_errors\":");
        result.append(std::to_string(s.internal_errors));
        result.append(",\"watchdog_cancels\":");
        result.append(std::to_string(s.watchdog_cancels));
        result.append(",\"bad_requests\":");
        result.append(std::to_string(s.bad_requests));
        result.append(",\"in_flight\":");
        result.append(std::to_string(in_flight()));
        result.append(",\"classes\":[");
        bool first = true;
        for (const std::string& name : classes_.Names()) {
          guard::BudgetClass* cls = classes_.Find(name);
          if (cls == nullptr) continue;
          if (!first) result.push_back(',');
          first = false;
          result.append("{\"name\":");
          AppendJson(name, &result);
          result.append(",\"in_flight\":");
          result.append(std::to_string(cls->in_flight()));
          result.append(",\"admitted\":");
          result.append(std::to_string(cls->admitted()));
          result.append(",\"rejected\":");
          result.append(std::to_string(cls->rejected()));
          result.push_back('}');
        }
        result.append("]}");
        Response r;
        r.result_json = std::move(result);
        return r;
      });
}

}  // namespace vqdr::svc
