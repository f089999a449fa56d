#include "cq/matcher.h"

#include <string>

#include "base/check.h"
#include "cq/matcher_impl.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vqdr {

namespace {

using matcher_internal::MatchStats;

// Resolves a term under a binding; all variables must be bound.
Value ResolveTerm(const Term& t, const Binding& binding) {
  if (t.is_const()) return t.constant();
  auto it = binding.find(t.var());
  VQDR_CHECK(it != binding.end()) << "unbound variable " << t.var();
  return it->second;
}

// Checks negated atoms and disequalities under a full binding.
bool FiltersPass(const ConjunctiveQuery& q, const Instance& db,
                 const Binding& binding) {
  for (const TermComparison& c : q.disequalities()) {
    if (ResolveTerm(c.lhs, binding) == ResolveTerm(c.rhs, binding)) {
      return false;
    }
  }
  for (const Atom& atom : q.negated_atoms()) {
    // A predicate absent from the database schema denotes an empty relation,
    // so the negated atom trivially passes.
    if (!db.schema().Contains(atom.predicate)) continue;
    Tuple ground;
    ground.reserve(atom.args.size());
    for (const Term& t : atom.args) ground.push_back(ResolveTerm(t, binding));
    if (db.HasFact(atom.predicate, ground)) return false;
  }
  return true;
}

}  // namespace

bool ForEachMatch(const std::vector<Atom>& atoms, const Instance& db,
                  const Binding& initial,
                  const std::function<bool(const Binding&)>& on_match,
                  guard::Budget* budget) {
  return ForEachMatch(atoms, db, initial, on_match, budget, MatcherOptions{});
}

bool ForEachMatch(const std::vector<Atom>& atoms, const Instance& db,
                  const Binding& initial,
                  const std::function<bool(const Binding&)>& on_match,
                  guard::Budget* budget, const MatcherOptions& options) {
  for (const Atom& atom : atoms) {
    // A predicate missing from the database schema denotes an empty
    // relation: the conjunction has no matches.
    if (!db.schema().Contains(atom.predicate)) return true;
    VQDR_CHECK_EQ(*db.schema().ArityOf(atom.predicate), atom.arity())
        << "atom/relation arity mismatch for " << atom.predicate;
  }
  // With tracing off this is one relaxed load; with it on, the hom matcher
  // shows up as its own node in the span-tree profile.
  VQDR_TRACE_SPAN("cq.match", static_cast<std::int64_t>(atoms.size()));
  MatchStats stats;
  bool completed = matcher_internal::IndexedMatch(atoms, db, initial,
                                                  on_match, stats, budget,
                                                  options);
  VQDR_COUNTER_ADD("cq.hom.attempts", stats.attempts);
  VQDR_COUNTER_ADD("cq.hom.matches", stats.matches);
  if (stats.index_builds) {
    VQDR_COUNTER_ADD("cq.hom.index.builds", stats.index_builds);
  }
  if (stats.index_lookups) {
    VQDR_COUNTER_ADD("cq.hom.index.lookups", stats.index_lookups);
  }
  if (stats.index_candidates) {
    VQDR_COUNTER_ADD("cq.hom.index.candidates", stats.index_candidates);
  }
  if (stats.fc_prunes) VQDR_COUNTER_ADD("cq.hom.fc.prunes", stats.fc_prunes);
  if (stats.bj_jumps) VQDR_COUNTER_ADD("cq.hom.bj.jumps", stats.bj_jumps);
  if (stats.sym_skips) VQDR_COUNTER_ADD("cq.hom.sym.skips", stats.sym_skips);
  return completed;
}

Relation EvaluateCq(const ConjunctiveQuery& q, const Instance& db) {
  VQDR_COUNTER_INC("cq.eval.calls");
  VQDR_CHECK(q.IsSafe()) << "evaluating unsafe query: " << q.ToString();
  bool satisfiable = true;
  ConjunctiveQuery normalized = q.PropagateEqualities(&satisfiable);
  Relation result(q.head_arity());
  if (!satisfiable) return result;

  ForEachMatch(
      normalized.atoms(), db, Binding{},
      [&](const Binding& binding) {
        if (FiltersPass(normalized, db, binding)) {
          Tuple answer;
          answer.reserve(normalized.head_terms().size());
          for (const Term& t : normalized.head_terms()) {
            answer.push_back(ResolveTerm(t, binding));
          }
          result.Insert(answer);
        }
        return true;
      });
  return result;
}

Relation EvaluateUcq(const UnionQuery& q, const Instance& db) {
  VQDR_CHECK(!q.empty()) << "evaluating empty UCQ";
  Relation result(q.head_arity());
  for (const ConjunctiveQuery& disjunct : q.disjuncts()) {
    result = result.Union(EvaluateCq(disjunct, db));
  }
  return result;
}

bool CqAnswerContains(const ConjunctiveQuery& q, const Instance& db,
                      const Tuple& tuple, guard::Budget* budget,
                      Binding* witness) {
  VQDR_COUNTER_INC("cq.answer_contains.calls");
  VQDR_CHECK_EQ(static_cast<int>(tuple.size()), q.head_arity());
  VQDR_CHECK(q.IsSafe()) << "evaluating unsafe query: " << q.ToString();
  bool satisfiable = true;
  ConjunctiveQuery normalized = q.PropagateEqualities(&satisfiable);
  if (!satisfiable) return false;

  // Bind head variables to the target tuple up front; reject if the head's
  // constants disagree with the tuple.
  Binding initial;
  for (std::size_t i = 0; i < tuple.size(); ++i) {
    const Term& t = normalized.head_terms()[i];
    if (t.is_const()) {
      if (t.constant() != tuple[i]) return false;
      continue;
    }
    auto it = initial.find(t.var());
    if (it != initial.end()) {
      if (it->second != tuple[i]) return false;
    } else {
      initial.emplace(t.var(), tuple[i]);
    }
  }

  bool found = false;
  ForEachMatch(
      normalized.atoms(), db, initial,
      [&](const Binding& binding) {
        if (FiltersPass(normalized, db, binding)) {
          found = true;
          if (witness != nullptr) *witness = binding;
          return false;  // stop
        }
        return true;
      },
      budget);
  return found;
}

bool CqHolds(const ConjunctiveQuery& q, const Instance& db) {
  VQDR_CHECK_EQ(q.head_arity(), 0) << "CqHolds on non-Boolean query";
  return CqAnswerContains(q, db, Tuple{});
}

}  // namespace vqdr
