#include "core/boolean_views.h"

#include <functional>
#include <vector>

#include "base/check.h"
#include "chase/view_inverse.h"
#include "cq/canonical.h"
#include "cq/matcher.h"

namespace vqdr {

namespace {

// Shifts every non-constant value of `d` by `delta` (a generic renaming
// fixing constants; Boolean view images are invariant under it).
Instance ShiftValues(const Instance& d, const std::set<Value>& constants,
                     std::int64_t delta) {
  return d.Apply([&constants, delta](Value v) {
    if (constants.count(v) > 0) return v;
    return Value(v.id + delta);
  });
}

}  // namespace

BooleanDeterminacyResult DecideBooleanViewDeterminacy(
    const ViewSet& views, const ConjunctiveQuery& q) {
  VQDR_CHECK(views.AllPureCq() && views.AllBoolean())
      << "DecideBooleanViewDeterminacy requires Boolean pure-CQ views";
  VQDR_CHECK(q.IsPureCq() && q.IsSafe())
      << "DecideBooleanViewDeterminacy requires a safe pure-CQ query";

  BooleanDeterminacyResult result;
  result.determined = true;

  // Constants in play: freezing fixes them and merges must fix them.
  std::set<Value> constants = q.Constants();
  for (const View& v : views.views()) {
    for (Value c : v.query.AsCq().Constants()) constants.insert(c);
  }

  // Freeze the query once; θ below re-maps its frozen variable values.
  ValueFactory factory;
  for (Value c : constants) factory.NoteUsed(c);
  FrozenQuery frozen_q = Freeze(q, factory);

  const std::size_t m = views.size();
  Schema full_schema = ChaseSchema(views, frozen_q.instance.schema());

  for (std::uint64_t mask = 0; mask < (1ull << m); ++mask) {
    // D_T: union of the frozen bodies of the views in T — the hom-minimal
    // member of class T, if the class is realizable.
    Instance d_t(full_schema);
    ValueFactory local = factory;
    local.NoteUsed(Value(frozen_q.instance.MaxValueId()));
    for (std::size_t i = 0; i < m; ++i) {
      if (!(mask & (1ull << i))) continue;
      FrozenQuery body = Freeze(views.views()[i].query.AsCq(), local);
      d_t = d_t.UnionWith(body.instance);
    }

    // Realizability: every view outside T must be false on D_T. (If some
    // outside view holds on the minimal member it holds on every member, so
    // the class is empty.)
    bool realizable = true;
    for (std::size_t j = 0; j < m; ++j) {
      if (mask & (1ull << j)) continue;
      if (CqHolds(views.views()[j].query.AsCq(), d_t)) {
        realizable = false;
        break;
      }
    }
    if (!realizable) continue;
    ++result.realizable_classes;

    Relation q_on_min = EvaluateCq(q, d_t);

    // Refutation (i): an answer with a non-constant value is moved by a
    // value-shift, which Boolean views cannot see.
    bool has_nonconstant_answer = false;
    for (TupleRef t : q_on_min.tuples()) {
      for (Value v : t) {
        if (constants.count(v) == 0) has_nonconstant_answer = true;
      }
    }
    if (has_nonconstant_answer) {
      Instance shifted =
          ShiftValues(d_t, constants, d_t.MaxValueId() + 1000);
      result.determined = false;
      result.counterexample = DeterminacyCounterexample{d_t, shifted};
      return result;
    }

    // Refutation (ii): a merge W = D_T ∪ θ([Q]) that stays inside class T
    // while contributing an answer θ(x̄) outside Q(D_T). θ maps each frozen
    // variable of [Q] into adom(D_T) or into a merged fresh block;
    // exhaustively enumerated. If no such merge exists, every member's
    // answer equals Q(D_T) (all-constant tuples are fixed by the
    // homomorphisms from D_T), so the class is Q-constant.
    std::set<Value> dt_adom = d_t.ActiveDomain();
    std::vector<Value> frozen_vars;
    for (const auto& [var, value] : frozen_q.var_to_value) {
      frozen_vars.push_back(value);
    }
    std::vector<Value> dt_values(dt_adom.begin(), dt_adom.end());
    std::int64_t fresh_base =
        std::max(d_t.MaxValueId(), frozen_q.instance.MaxValueId()) + 1;

    std::map<Value, Value> theta;
    std::optional<Instance> witness;
    std::function<bool(std::size_t, int)> search = [&](std::size_t i,
                                                       int fresh_used) -> bool {
      if (i == frozen_vars.size()) {
        auto apply_theta = [&](Value v) {
          auto it = theta.find(v);
          return it != theta.end() ? it->second : v;  // constants fixed
        };
        // The contributed answer must be new.
        Tuple contributed;
        contributed.reserve(frozen_q.frozen_head.size());
        for (Value v : frozen_q.frozen_head) {
          contributed.push_back(apply_theta(v));
        }
        if (q_on_min.Contains(contributed)) return false;

        Instance merged = frozen_q.instance.Apply(apply_theta);
        Instance w = d_t.UnionWith(merged);
        for (std::size_t j = 0; j < m; ++j) {
          if (mask & (1ull << j)) continue;
          if (CqHolds(views.views()[j].query.AsCq(), w)) return false;
        }
        witness = std::move(w);
        return true;
      }
      for (Value target : dt_values) {
        theta[frozen_vars[i]] = target;
        if (search(i + 1, fresh_used)) return true;
      }
      // Fresh blocks f0..f_{fresh_used}: reusing an existing block merges
      // variables; opening exactly the next block keeps enumeration
      // canonical (no symmetric duplicates).
      for (int f = 0; f <= fresh_used; ++f) {
        theta[frozen_vars[i]] = Value(fresh_base + f);
        bool found = search(i + 1, std::max(fresh_used, f + 1));
        if (found) return true;
      }
      theta.erase(frozen_vars[i]);
      return false;
    };

    if (search(0, 0)) {
      result.determined = false;
      result.counterexample = DeterminacyCounterexample{d_t, *witness};
      return result;
    }
  }
  return result;
}

}  // namespace vqdr
