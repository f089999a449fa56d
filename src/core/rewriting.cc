#include "core/rewriting.h"

#include <map>
#include <string>

#include "base/check.h"
#include "core/determinacy.h"
#include "cq/canonical.h"
#include "cq/containment.h"

namespace vqdr {

ConjunctiveQuery ExpandRewriting(const ConjunctiveQuery& r,
                                 const ViewSet& views) {
  VQDR_CHECK(views.AllPureCq()) << "expansion requires pure CQ views";
  VQDR_CHECK(r.IsPureCq()) << "expansion requires a pure CQ rewriting";

  ConjunctiveQuery expansion(r.head_name(), r.head_terms());
  int copy = 0;
  for (const Atom& view_atom : r.atoms()) {
    const View& view = views.Get(view_atom.predicate);
    const ConjunctiveQuery& def = view.query.AsCq();
    VQDR_CHECK_EQ(def.head_arity(), view_atom.arity());

    // Rename the view body apart: every variable gets a per-copy suffix.
    std::string suffix = "@" + std::to_string(copy++);
    ConjunctiveQuery fresh = def.RenameVariables(
        [&suffix](const std::string& v) { return v + suffix; });

    // Unify the renamed head with the atom's arguments. First occurrence of
    // a head variable binds it; repeats and constants become equalities that
    // PropagateEqualities resolves below.
    std::map<std::string, Term> head_binding;
    for (int i = 0; i < view_atom.arity(); ++i) {
      const Term& pattern = fresh.head_terms()[i];
      const Term& arg = view_atom.args[i];
      if (pattern.is_const()) {
        expansion.AddEquality(pattern, arg);
        continue;
      }
      auto it = head_binding.find(pattern.var());
      if (it == head_binding.end()) {
        head_binding.emplace(pattern.var(), arg);
      } else {
        expansion.AddEquality(it->second, arg);
      }
    }
    ConjunctiveQuery bound = fresh.MapTerms([&head_binding](const Term& t) {
      if (t.is_const()) return t;
      auto it = head_binding.find(t.var());
      return it != head_binding.end() ? it->second : t;
    });
    for (const Atom& atom : bound.atoms()) expansion.AddAtom(atom);
  }

  bool satisfiable = true;
  ConjunctiveQuery normalized = expansion.PropagateEqualities(&satisfiable);
  if (!satisfiable) {
    // The rewriting can never produce a tuple; return an unsatisfiable CQ
    // over the base schema (kept explicit for callers).
    return expansion;
  }
  return normalized;
}

UnionQuery ExpandUcqRewriting(const UnionQuery& r, const ViewSet& views) {
  UnionQuery expansion;
  for (const ConjunctiveQuery& disjunct : r.disjuncts()) {
    expansion.AddDisjunct(ExpandRewriting(disjunct, views));
  }
  return expansion;
}

namespace {

// Greedily removes atoms from `rewriting` while its expansion stays
// equivalent to `target`.
ConjunctiveQuery MinimizeRewriting(const ConjunctiveQuery& rewriting,
                                   const ViewSet& views,
                                   const ConjunctiveQuery& target) {
  ConjunctiveQuery current = rewriting;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < current.atoms().size(); ++i) {
      ConjunctiveQuery candidate(current.head_name(), current.head_terms());
      for (std::size_t j = 0; j < current.atoms().size(); ++j) {
        if (j != i) candidate.AddAtom(current.atoms()[j]);
      }
      if (!candidate.IsSafe()) continue;
      if (CqEquivalent(ExpandRewriting(candidate, views), target)) {
        current = candidate;
        changed = true;
        break;
      }
    }
  }
  return current;
}

}  // namespace

CqRewritingResult FindCqRewriting(const ViewSet& views,
                                  const ConjunctiveQuery& q) {
  CqRewritingResult result;
  UnrestrictedDeterminacyResult det = DecideUnrestrictedDeterminacy(views, q);
  if (!det.determined) return result;  // no equivalent rewriting exists
  result.exists = true;
  result.rewriting = MinimizeRewriting(*det.canonical_rewriting, views, q);
  return result;
}

UcqRewritingResult FindUcqRewriting(const ViewSet& views,
                                    const UnionQuery& q) {
  VQDR_CHECK(views.AllPureCq())
      << "UCQ rewriting synthesis requires pure CQ views";
  VQDR_CHECK(q.IsPureUcq()) << "UCQ rewriting requires a pure UCQ query";

  UcqRewritingResult result;
  UnionQuery candidate;
  for (const ConjunctiveQuery& disjunct : q.disjuncts()) {
    UnrestrictedDeterminacyResult det =
        DecideUnrestrictedDeterminacy(views, disjunct);
    // The canonical rewriting of the disjunct always satisfies
    // disjunct ⊆ expansion (Prop 3.5(ii)); the union is an equivalent
    // rewriting of q iff each expansion is additionally contained in q.
    std::set<Value> constants = disjunct.Constants();
    for (const View& v : views.views()) {
      for (Value c : v.query.AsCq().Constants()) constants.insert(c);
    }
    // Build the canonical rewriting even when the *disjunct* is not
    // individually determined: the union may still cover q.
    ConjunctiveQuery canonical =
        InstanceToQuery(det.canonical_view_image, det.frozen_head, constants,
                        q.head_name());
    if (!canonical.IsSafe()) return result;  // head value not exposed by V

    ConjunctiveQuery expansion = ExpandRewriting(canonical, views);
    if (!UcqContainedIn(UnionQuery(expansion), q)) {
      return result;  // this disjunct has no covering rewriting
    }
    candidate.AddDisjunct(std::move(canonical));
  }
  // By Prop 3.5(ii) per disjunct, q ⊆ expansion(candidate); the loop above
  // checked the converse, so candidate is an equivalent rewriting.
  result.exists = true;
  result.rewriting = std::move(candidate);
  return result;
}

RewritingValidation ValidateRewriting(const ViewSet& views, const Query& q,
                                      const Query& r, const Schema& base,
                                      const EnumerationOptions& options) {
  RewritingValidation validation;
  EnumerationOutcome outcome =
      ForEachInstance(base, options, [&](const Instance& d) {
        Relation direct = q.Eval(d);
        Relation via_views = r.Eval(views.Apply(d));
        if (direct != via_views) {
          validation.valid = false;
          validation.counterexample = d;
          return false;
        }
        return true;
      });
  validation.exhaustive = outcome.complete;
  return validation;
}

}  // namespace vqdr
