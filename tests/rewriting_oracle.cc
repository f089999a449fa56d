#include "rewriting_oracle.h"

#include <functional>
#include <vector>

#include "base/check.h"
#include "core/rewriting.h"
#include "cq/containment.h"

namespace vqdr::oracle {

ReferenceRewritingResult FindCqRewritingByEnumeration(
    const ViewSet& views, const ConjunctiveQuery& q,
    const ReferenceRewritingOptions& options) {
  VQDR_CHECK(views.AllPureCq());
  VQDR_CHECK(q.IsPureCq() && q.IsSafe());

  ReferenceRewritingResult result;

  // Head: fresh variables h1..hk; body variables drawn from the heads plus
  // a pool b1..bp.
  std::vector<Term> head_terms;
  std::vector<Term> term_pool;
  for (int i = 0; i < q.head_arity(); ++i) {
    head_terms.push_back(Term::Var("h" + std::to_string(i + 1)));
    term_pool.push_back(head_terms.back());
  }
  for (int i = 0; i < options.variable_pool; ++i) {
    term_pool.push_back(Term::Var("b" + std::to_string(i + 1)));
  }
  Schema view_schema = views.OutputSchema();

  // Enumerate candidates with 1..max_atoms view atoms; argument tuples
  // range over the term pool.
  std::vector<Atom> atoms;
  std::function<bool()> test_candidate = [&]() -> bool {
    if (++result.candidates_examined > options.max_candidates) {
      result.exhaustive = false;
      return true;  // stop everything
    }
    ConjunctiveQuery candidate(q.head_name(), head_terms);
    for (const Atom& a : atoms) candidate.AddAtom(a);
    if (!candidate.IsSafe()) return false;
    ConjunctiveQuery expansion = ExpandRewriting(candidate, views);
    if (expansion.atoms().empty()) return false;
    if (CqEquivalent(expansion, q)) {
      result.exists = true;
      result.rewriting = candidate;
      return true;  // stop
    }
    return false;
  };

  std::function<bool(int)> build = [&](int remaining) -> bool {
    if (test_candidate()) return true;
    if (remaining == 0) return false;
    for (const RelationDecl& decl : view_schema.decls()) {
      Atom atom;
      atom.predicate = decl.name;
      atom.args.assign(decl.arity, term_pool.front());
      std::function<bool(int)> fill = [&](int pos) -> bool {
        if (pos == decl.arity) {
          atoms.push_back(atom);
          bool done = build(remaining - 1);
          atoms.pop_back();
          return done;
        }
        for (const Term& t : term_pool) {
          atom.args[pos] = t;
          if (fill(pos + 1)) return true;
        }
        return false;
      };
      if (decl.arity == 0) {
        atoms.push_back(atom);
        bool done = build(remaining - 1);
        atoms.pop_back();
        if (done) return true;
        continue;
      }
      if (fill(0)) return true;
    }
    return false;
  };

  build(options.max_atoms);
  return result;
}

}  // namespace vqdr::oracle
