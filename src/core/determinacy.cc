#include "core/determinacy.h"

#include <memory>
#include <string>

#include "base/check.h"
#include "chase/view_inverse.h"
#include "cq/canonical.h"
#include "cq/explain_bridge.h"
#include "cq/fingerprint.h"
#include "cq/matcher.h"
#include "cq/serialize.h"
#include "data/serialize.h"
#include "memo/cache_through.h"
#include "memo/snapshot.h"
#include "obs/context.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vqdr {

namespace {

UnrestrictedDeterminacyResult DecideUnrestrictedDeterminacyImpl(
    const ViewSet& views, const ConjunctiveQuery& q, guard::Budget* budget,
    obs::ExplainLog* explain);

// Snapshot codec (DESIGN.md §14). Only kComplete results are installed, so
// the outcome is implied; the verdict, both instances, the frozen head, and
// the optional rewriting are encoded exactly.
std::string EncodeDeterminacyResult(const UnrestrictedDeterminacyResult& r) {
  wire::Encoder enc;
  enc.U8(r.determined ? 1 : 0);
  EncodeInstance(r.canonical_view_image, enc);
  EncodeTuple(r.frozen_head, enc);
  EncodeInstance(r.chase_inverse, enc);
  enc.U8(r.canonical_rewriting.has_value() ? 1 : 0);
  if (r.canonical_rewriting.has_value()) {
    EncodeCq(*r.canonical_rewriting, enc);
  }
  return enc.Take();
}

std::shared_ptr<const UnrestrictedDeterminacyResult>
DecodeDeterminacyResult(std::string_view payload) {
  wire::Decoder dec(payload);
  auto r = std::make_shared<UnrestrictedDeterminacyResult>();
  std::uint8_t determined = dec.U8();
  if (determined > 1) return nullptr;
  r->determined = determined == 1;
  if (!DecodeInstance(dec, &r->canonical_view_image)) return nullptr;
  if (!DecodeTuple(dec, &r->frozen_head)) return nullptr;
  if (!DecodeInstance(dec, &r->chase_inverse)) return nullptr;
  std::uint8_t has_rewriting = dec.U8();
  if (has_rewriting > 1) return nullptr;
  if (has_rewriting == 1) {
    ConjunctiveQuery rewriting;
    if (!DecodeCq(dec, &rewriting)) return nullptr;
    r->canonical_rewriting = std::move(rewriting);
  }
  if (!dec.ok() || !dec.AtEnd()) return nullptr;
  return r;
}

[[maybe_unused]] const bool kDeterminacyCodecRegistered =
    memo::RegisterSnapshotType<UnrestrictedDeterminacyResult>(
        "det.v1", EncodeDeterminacyResult, DecodeDeterminacyResult);

}  // namespace

UnrestrictedDeterminacyResult DecideUnrestrictedDeterminacy(
    const ViewSet& views, const ConjunctiveQuery& q, guard::Budget* budget,
    obs::ExplainLog* explain) {
  // No-op when already inside a battery/batch op; top-level direct calls
  // get their own registry entry.
  obs::OpScope op(obs::OpKind::kDecide, "determinacy.decide", budget);
  using Result = UnrestrictedDeterminacyResult;
  return memo::CacheThrough<Result>(
      "memo.determinacy", "determinacy", explain,
      // Exact key: the result's instances carry concrete frozen-value ids.
      // The decision builds its own factory from a fixed floor, so equal
      // (views, query) serializations replay byte-identically.
      [&] { return "det|" + views.ToString() + "|" + ExactCqKey(q); },
      [&] {
        return DecideUnrestrictedDeterminacyImpl(views, q, budget, explain);
      },
      [](const Result& hit) { return hit; },
      // Never cache partial outcomes — they describe this run's budget, not
      // the inputs.
      [](const Result& result) -> std::optional<Result> {
        if (!guard::IsComplete(result.outcome)) return std::nullopt;
        return result;
      });
}

namespace {

UnrestrictedDeterminacyResult DecideUnrestrictedDeterminacyImpl(
    const ViewSet& views, const ConjunctiveQuery& q, guard::Budget* budget,
    obs::ExplainLog* explain) {
  VQDR_COUNTER_INC("determinacy.decisions");
  VQDR_TRACE_SPAN("determinacy.unrestricted");
  VQDR_CHECK(views.AllPureCq())
      << "unrestricted determinacy decision requires pure CQ views";
  VQDR_CHECK(q.IsPureCq())
      << "unrestricted determinacy decision requires a pure CQ query";
  VQDR_CHECK(q.IsSafe()) << "query must be safe: " << q.ToString();

  UnrestrictedDeterminacyResult result;

  // Freeze Q; keep constants (of query and views) out of the fresh range.
  ValueFactory factory;
  for (const View& v : views.views()) {
    for (Value c : v.query.AsCq().Constants()) factory.NoteUsed(c);
  }
  FrozenQuery frozen = Freeze(q, factory);

  // [Q] over the widened chase schema (views may mention extra relations).
  Schema chase_schema = ChaseSchema(views, frozen.instance.schema());
  Instance d0(chase_schema);
  for (const RelationDecl& d : frozen.instance.schema().decls()) {
    d0.Set(d.name, frozen.instance.Get(d.name));
  }

  // S = V([Q]) and D' = V_∅^{-1}(S).
  result.frozen_head = frozen.frozen_head;
  result.canonical_view_image = views.Apply(d0);
  Instance empty(chase_schema);
  try {
    result.chase_inverse =
        ViewInverse(views, empty, result.canonical_view_image, factory, budget);
    if (budget != nullptr && budget->Stopped()) {
      // Partial chase-back: x̄ ∈ Q(D') over an incomplete D' could flip
      // either way, so no verdict — report what was computed and stop.
      result.outcome = budget->stop_reason();
      return result;
    }

    // Decision: x̄ ∈ Q(V_∅^{-1}(V([Q]))). The matcher polls the budget per
    // backtracking node, so a hostile chase-back cannot outlive a deadline.
    Binding decision_witness;
    result.determined = CqAnswerContains(
        q, result.chase_inverse, frozen.frozen_head, budget,
        obs::Wants(explain) ? &decision_witness : nullptr);
    if (budget != nullptr && budget->Stopped()) {
      result.outcome = budget->stop_reason();
      result.determined = false;
      return result;
    }
    if (obs::Wants(explain)) {
      obs::ExplainEvent e;
      e.kind = obs::ExplainKind::kDecision;
      e.label = "determinacy.unrestricted";
      e.stats["determined"] = result.determined ? 1 : 0;
      e.stats["view_image_facts"] = static_cast<std::int64_t>(
          result.canonical_view_image.TupleCount());
      e.stats["chase_inverse_facts"] =
          static_cast<std::int64_t>(result.chase_inverse.TupleCount());
      if (result.determined) {
        e.detail = "x̄ ∈ Q(D'): the frozen head is recoverable from the "
                   "chased-back inverse (Theorem 3.7)";
        e.witness = MakeContainmentWitness(q, result.chase_inverse,
                                           frozen.frozen_head,
                                           decision_witness);
      } else {
        e.detail = "x̄ ∉ Q(D'): the chased-back inverse does not recover "
                   "the frozen head (Theorem 3.7)";
        e.instance = ToExplainFacts(result.chase_inverse);
      }
      explain->Append(std::move(e));
    }
  } catch (...) {
    if (budget != nullptr) budget->MarkInternalError();
    result.outcome = guard::Outcome::kInternalError;
    result.determined = false;
    return result;
  }

  if (result.determined) {
    VQDR_COUNTER_INC("determinacy.determined");
    // Q_V: the CQ over σ_V whose frozen body is S and whose head is x̄.
    // Constants of the query/views remain constants; frozen variables of
    // [Q] become variables of Q_V.
    std::set<Value> constants = q.Constants();
    for (const View& v : views.views()) {
      for (Value c : v.query.AsCq().Constants()) constants.insert(c);
    }
    result.canonical_rewriting =
        InstanceToQuery(result.canonical_view_image, frozen.frozen_head,
                        constants, q.head_name());
  }
  return result;
}

}  // namespace

}  // namespace vqdr
