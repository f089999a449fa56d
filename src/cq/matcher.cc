#include "cq/matcher.h"

#include <optional>
#include <string>

#include "base/check.h"
#include "cq/matcher_impl.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vqdr {

int Match::SlotOf(const std::string& name) const {
  for (std::size_t i = 0; i < names_->size(); ++i) {
    if ((*names_)[i] == name) return static_cast<int>(i);
  }
  return -1;
}

Binding Match::ToBinding() const {
  Binding binding;
  for (std::size_t i = 0; i < names_->size(); ++i) {
    binding.emplace((*names_)[i], (*values_)[i]);
  }
  return binding;
}

CompiledBody::SlotTerm CompiledBody::Compile(const Term& t, const Match& m) {
  if (t.is_const()) return SlotTerm{-1, t.constant()};
  int slot = m.SlotOf(t.var());
  VQDR_CHECK_GE(slot, 0) << "unbound variable " << t.var();
  return SlotTerm{slot, Value{}};
}

CompiledBody::CompiledBody(const Match& m, const std::vector<Term>& head,
                           const std::vector<TermComparison>& disequalities,
                           const std::vector<Atom>& negated,
                           const Instance& db) {
  head_.reserve(head.size());
  for (const Term& t : head) head_.push_back(Compile(t, m));
  for (const TermComparison& c : disequalities) {
    disequalities_.emplace_back(Compile(c.lhs, m), Compile(c.rhs, m));
  }
  for (const Atom& atom : negated) {
    if (!db.schema().Contains(atom.predicate)) continue;
    NegatedAtom compiled{&db.Get(atom.predicate), {}};
    for (const Term& t : atom.args) compiled.args.push_back(Compile(t, m));
    negated_.push_back(std::move(compiled));
  }
}

bool CompiledBody::Passes(const Match& m) {
  for (const auto& [lhs, rhs] : disequalities_) {
    if (Resolve(lhs, m) == Resolve(rhs, m)) return false;
  }
  for (const NegatedAtom& atom : negated_) {
    scratch_.clear();
    for (const SlotTerm& t : atom.args) scratch_.push_back(Resolve(t, m));
    if (atom.relation->Contains(scratch_)) return false;
  }
  return true;
}

void CompiledBody::AppendHead(const Match& m, RowBuffer& out) const {
  Value* row = out.AppendRow();
  for (const SlotTerm& t : head_) *row++ = Resolve(t, m);
}

bool ForEachMatch(const std::vector<Atom>& atoms, const Instance& db,
                  const Binding& initial,
                  const std::function<bool(const Match&)>& on_match,
                  guard::Budget* budget) {
  return ForEachMatch(atoms, db, initial, on_match, budget, MatcherOptions{});
}

bool ForEachMatch(const std::vector<Atom>& atoms, const Instance& db,
                  const Binding& initial,
                  const std::function<bool(const Match&)>& on_match,
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
  matcher_internal::MatchStats stats;
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

namespace {

// Appends the head image of every answer of `q` over `db` to `answers`; a
// Boolean query stops at its first answer.
void CollectAnswers(const ConjunctiveQuery& q, const Instance& db,
                    RowBuffer& answers) {
  VQDR_COUNTER_INC("cq.eval.calls");
  VQDR_CHECK(q.IsSafe()) << "evaluating unsafe query: " << q.ToString();
  bool satisfiable = true;
  ConjunctiveQuery normalized = q.PropagateEqualities(&satisfiable);
  if (!satisfiable) return;

  const bool boolean = q.head_arity() == 0;
  std::optional<CompiledBody> body;
  ForEachMatch(normalized.atoms(), db, Binding{}, [&](const Match& m) {
    if (!body.has_value()) {
      body.emplace(m, normalized.head_terms(), normalized.disequalities(),
                   normalized.negated_atoms(), db);
    }
    if (!body->Passes(m)) return true;
    body->AppendHead(m, answers);
    return !boolean;
  });
}

}  // namespace

Relation EvaluateCq(const ConjunctiveQuery& q, const Instance& db) {
  RowBuffer answers(q.head_arity());
  CollectAnswers(q, db, answers);
  return Relation(std::move(answers));
}

Relation EvaluateUcq(const UnionQuery& q, const Instance& db) {
  VQDR_CHECK(!q.empty()) << "evaluating empty UCQ";
  RowBuffer answers(q.head_arity());
  for (const ConjunctiveQuery& disjunct : q.disjuncts()) {
    CollectAnswers(disjunct, db, answers);
  }
  return Relation(std::move(answers));
}

bool CqAnswerContains(const ConjunctiveQuery& q, const Instance& db,
                      TupleRef tuple, guard::Budget* budget,
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
  std::optional<CompiledBody> body;
  ForEachMatch(
      normalized.atoms(), db, initial,
      [&](const Match& m) {
        if (!body.has_value()) {
          body.emplace(m, std::vector<Term>{}, normalized.disequalities(),
                       normalized.negated_atoms(), db);
        }
        if (!body->Passes(m)) return true;
        found = true;
        if (witness != nullptr) *witness = m.ToBinding();
        return false;  // stop
      },
      budget);
  return found;
}

bool CqHolds(const ConjunctiveQuery& q, const Instance& db) {
  VQDR_CHECK_EQ(q.head_arity(), 0) << "CqHolds on non-Boolean query";
  return CqAnswerContains(q, db, TupleRef());
}

}  // namespace vqdr
