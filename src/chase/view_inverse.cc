#include "chase/view_inverse.h"

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "base/check.h"
#include "cq/fingerprint.h"
#include "data/serialize.h"
#include "guard/fault.h"
#include "memo/cache_through.h"
#include "memo/snapshot.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vqdr {

Schema ChaseSchema(const ViewSet& views, const Schema& base) {
  Schema schema = base;
  for (const View& v : views.views()) {
    schema = schema.UnionWith(v.query.AsCq().BodySchema());
  }
  return schema;
}

namespace {

/// A cached inverse plus the factory state after the call, so a hit replays
/// the exact minting of the original computation.
struct CachedInverse {
  Instance result;
  std::int64_t end_next_id = 0;
};

// Snapshot codec (DESIGN.md §14): the instance plus the recorded factory
// end state, so a warm-boot hit replays the same minting as the original.
std::string EncodeCachedInverse(const CachedInverse& cached) {
  wire::Encoder enc;
  EncodeInstance(cached.result, enc);
  enc.I64(cached.end_next_id);
  return enc.Take();
}

std::shared_ptr<const CachedInverse> DecodeCachedInverse(
    std::string_view payload) {
  wire::Decoder dec(payload);
  auto cached = std::make_shared<CachedInverse>();
  if (!DecodeInstance(dec, &cached->result)) return nullptr;
  cached->end_next_id = dec.I64();
  if (!dec.ok() || !dec.AtEnd()) return nullptr;
  return cached;
}

[[maybe_unused]] const bool kInverseCodecRegistered =
    memo::RegisterSnapshotType<CachedInverse>(
        "chase.vinv.v1", EncodeCachedInverse, DecodeCachedInverse);

Instance ViewInverseImpl(const ViewSet& views, const Instance& base,
                         const Instance& s_prime, ValueFactory& factory,
                         guard::Budget* budget);

}  // namespace

Instance ViewInverse(const ViewSet& views, const Instance& base,
                     const Instance& s_prime, ValueFactory& factory,
                     guard::Budget* budget) {
  return memo::CacheThrough<CachedInverse>(
      "memo.chase.view_inverse", "chase.vinv", /*explain=*/nullptr,
      // Exact key: the result carries concrete minted ids, so both input
      // digests and the factory state must match for a replay.
      [&] {
        return "chase.vinv|" + views.ToString() + "|" +
               InstanceMemoKey(base) + "|" + InstanceMemoKey(s_prime) + "|F" +
               std::to_string(factory.next_id());
      },
      [&] { return ViewInverseImpl(views, base, s_prime, factory, budget); },
      // A hit replays the minting of the original call.
      [&](const CachedInverse& hit) {
        factory.NoteUsed(Value(hit.end_next_id - 1));
        return hit.result;
      },
      // A budget-stopped inverse is partial; a thrown fault never reaches
      // the install. Only complete results are cached.
      [&](const Instance& result) -> std::optional<CachedInverse> {
        if (budget != nullptr && budget->Stopped()) return std::nullopt;
        return CachedInverse{result, factory.next_id()};
      });
}

namespace {

Instance ViewInverseImpl(const ViewSet& views, const Instance& base,
                         const Instance& s_prime, ValueFactory& factory,
                         guard::Budget* budget) {
  VQDR_COUNTER_INC("chase.view_inverse.calls");
  VQDR_TRACE_SPAN("chase.view_inverse");
  VQDR_CHECK(views.AllPureCq()) << "ViewInverse requires pure CQ views";

  // Result starts as a copy of the base over the widened schema.
  Instance result(ChaseSchema(views, base.schema()));
  for (const RelationDecl& d : base.schema().decls()) {
    result.Set(d.name, base.Get(d.name));
  }

  // Everything already present must not collide with fresh values.
  factory.NoteUsed(Value(base.MaxValueId()));
  factory.NoteUsed(Value(s_prime.MaxValueId()));
  // Constants of the view definitions enter the result through resolve()
  // exactly like pre-existing values, but need not occur in base or s_prime:
  // a view whose body mentions a constant only contributes it when its head
  // matches a new tuple. A fresh value colliding with such a constant would
  // alias a chase null to a dom constant and corrupt every later level, so
  // advance past all of them up front.
  for (const View& v : views.views()) {
    for (Value c : v.query.AsCq().Constants()) factory.NoteUsed(c);
  }

  Instance s = views.Apply(base);
  Tuple fact;  // reused across the facts added below

  for (const View& view : views.views()) {
    const ConjunctiveQuery& q = view.query.AsCq();
    const Relation& new_tuples = s_prime.Get(view.name);
    const Relation& old_tuples = s.Get(view.name);
    for (TupleRef y : new_tuples.tuples()) {
      if (old_tuples.Contains(y)) continue;  // already witnessed by base
      if (!guard::IsComplete(guard::Check(budget))) return result;
      VQDR_FAULT_ALLOC("chase.view_inverse");
      VQDR_COUNTER_INC("chase.view_inverse.tuples_chased");

      // α_ȳ: unify the head terms with ȳ.
      std::map<std::string, Value> alpha;
      for (std::size_t i = 0; i < y.size(); ++i) {
        const Term& t = q.head_terms()[i];
        if (t.is_const()) {
          VQDR_CHECK(t.constant() == y[i])
              << "view tuple disagrees with head constant of " << view.name;
          continue;
        }
        auto it = alpha.find(t.var());
        if (it != alpha.end()) {
          VQDR_CHECK(it->second == y[i])
              << "view tuple disagrees with repeated head variable of "
              << view.name;
        } else {
          alpha.emplace(t.var(), y[i]);
        }
      }
      // Non-head variables map to fresh distinct values (per tuple).
      std::map<std::string, Value> fresh;
      auto resolve = [&](const Term& t) -> Value {
        if (t.is_const()) return t.constant();
        auto it = alpha.find(t.var());
        if (it != alpha.end()) return it->second;
        auto fit = fresh.find(t.var());
        if (fit != fresh.end()) return fit->second;
        Value v = factory.Fresh();
        fresh.emplace(t.var(), v);
        return v;
      };
      for (const Atom& atom : q.atoms()) {
        fact.clear();
        for (const Term& t : atom.args) fact.push_back(resolve(t));
        result.AddFact(atom.predicate, fact);
      }
      if (!guard::IsComplete(guard::CheckAtoms(budget, q.atoms().size()))) {
        return result;
      }
      VQDR_COUNTER_ADD("chase.view_inverse.facts_added", q.atoms().size());
    }
  }
  VQDR_HISTOGRAM_RECORD("chase.view_inverse.result_size", result.TupleCount());
  return result;
}

}  // namespace

}  // namespace vqdr
