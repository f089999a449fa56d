#include "cq/containment.h"

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "base/check.h"
#include "cq/canonical.h"
#include "cq/explain_bridge.h"
#include "cq/fingerprint.h"
#include "cq/matcher.h"
#include "guard/fault.h"
#include "memo/cache_through.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vqdr {

namespace {

// Joins two canonical fingerprints into a containment key; nullopt (either
// side has no fingerprint) means "bypass the cache". Sound because the
// contained/not-contained verdict is invariant under isomorphism of either
// side, which is exactly what the fingerprints quotient by.
std::optional<std::string> ContainmentKey(const char* tag,
                                          std::optional<std::string> k1,
                                          std::optional<std::string> k2) {
  if (!k1.has_value() || !k2.has_value()) return std::nullopt;
  return std::string(tag) + "|" + *k1 + "|" + *k2;
}

// The cached form of a containment result is its verdict. Only definitive
// verdicts are cached: ResolveSweep reports every witness with outcome
// kComplete, so this single check also admits budget-stopped runs that
// still found a witness.
std::optional<bool> CacheableVerdict(const ContainmentResult& result) {
  if (!guard::IsComplete(result.outcome)) return std::nullopt;
  return result.contained;
}

// A cached verdict is complete by construction.
ContainmentResult CachedVerdict(bool contained) {
  ContainmentResult result;
  result.contained = contained;
  return result;
}

// Applies a term substitution (variables → terms) to a query.
ConjunctiveQuery SubstituteTerms(const ConjunctiveQuery& q,
                                 const std::map<std::string, Term>& subst) {
  auto map_term = [&subst](const Term& t) -> Term {
    if (t.is_const()) return t;
    auto it = subst.find(t.var());
    return it != subst.end() ? it->second : t;
  };
  ConjunctiveQuery result(q.head_name(), {});
  for (const Term& t : q.head_terms()) {
    result.mutable_head_terms().push_back(map_term(t));
  }
  for (const Atom& a : q.atoms()) {
    Atom mapped;
    mapped.predicate = a.predicate;
    for (const Term& t : a.args) mapped.args.push_back(map_term(t));
    result.AddAtom(std::move(mapped));
  }
  for (const Atom& a : q.negated_atoms()) {
    Atom mapped;
    mapped.predicate = a.predicate;
    for (const Term& t : a.args) mapped.args.push_back(map_term(t));
    result.AddNegatedAtom(std::move(mapped));
  }
  for (const TermComparison& c : q.equalities()) {
    result.AddEquality(map_term(c.lhs), map_term(c.rhs));
  }
  for (const TermComparison& c : q.disequalities()) {
    result.AddDisequality(map_term(c.lhs), map_term(c.rhs));
  }
  return result;
}

// A collapsed canonical database of q1 under one identification pattern.
struct PatternInstance {
  Instance instance{Schema{}};
  Tuple frozen_head;
};

// Records one pattern check into the explain log: a replayable witness when
// the pattern passed (q2 maps into the canonical database hitting the frozen
// head), the refuting canonical database when it failed. `q2` is the query
// the witness binding is over (a CQ, or the witnessing UCQ disjunct).
void RecordPatternCheck(obs::ExplainLog* log, const char* label,
                        const ConjunctiveQuery& q2,
                        const PatternInstance& pattern, bool pass,
                        const Binding& witness_binding,
                        std::int64_t disjunct = -1) {
  obs::ExplainEvent e;
  e.label = label;
  e.stats["instance_facts"] =
      static_cast<std::int64_t>(pattern.instance.TupleCount());
  if (disjunct >= 0) e.stats["disjunct"] = disjunct;
  if (pass) {
    e.kind = obs::ExplainKind::kWitness;
    e.witness = MakeContainmentWitness(q2, pattern.instance,
                                       pattern.frozen_head, witness_binding);
  } else {
    e.kind = obs::ExplainKind::kRefutation;
    e.instance = ToExplainFacts(pattern.instance);
    std::string head;
    for (Value v : pattern.frozen_head) {
      if (!head.empty()) head += ",";
      head += std::to_string(v.id);
    }
    e.detail = "frozen head (" + head + ") has no preimage under the right query";
  }
  log->Append(std::move(e));
}

// Checks one canonical database against a UCQ disjunct by disjunct so the
// witnessing disjunct — and its homomorphism — can be recorded. Equivalent
// to EvaluateUcq + Contains for the negation-free disjuncts containment
// admits (CqAnswerContains normalizes and filters the same way EvaluateCq
// does). Skips recording when the budget stopped mid-check, mirroring the
// governed sweep's "report pass so a stop cannot masquerade as a witness".
bool ExplainedUcqCheck(obs::ExplainLog* log, const UnionQuery& q2,
                       const PatternInstance& pattern, guard::Budget* budget) {
  for (std::size_t i = 0; i < q2.disjuncts().size(); ++i) {
    Binding witness;
    bool pass = CqAnswerContains(q2.disjuncts()[i], pattern.instance,
                                 pattern.frozen_head, budget, &witness);
    if (budget != nullptr && budget->Stopped()) return true;
    if (pass) {
      RecordPatternCheck(log, "ucq.sub", q2.disjuncts()[i], pattern, true,
                         witness, static_cast<std::int64_t>(i));
      return true;
    }
  }
  RecordPatternCheck(log, "ucq.sub", q2.disjuncts().front(), pattern, false,
                     Binding{});
  return false;
}

// Enumerates the collapsed queries of every identification pattern of q1's
// variables: every partition of the variables (restricted growth strings),
// with each block optionally identified with one of the constants in play
// (at most one block per constant — two blocks on the same constant is a
// coarser partition handled elsewhere). Calls `body` per collapsed query; a
// false return stops early. Returns true if every invocation returned true.
bool ForEachIdentificationPattern(
    const ConjunctiveQuery& q1, const std::set<Value>& all_constants,
    const std::function<bool(const ConjunctiveQuery&)>& body) {
  std::vector<std::string> vars = q1.AllVariables();
  std::vector<Value> constants(all_constants.begin(), all_constants.end());

  std::vector<int> blocks(vars.size(), 0);
  std::function<bool(std::size_t, int)> enumerate_partitions;
  auto run_with_assignment = [&](int block_count) -> bool {
    // choice[b] = -1 for fresh, else index into `constants`.
    std::vector<int> choice(block_count, -1);
    std::function<bool(int)> assign = [&](int b) -> bool {
      if (b == block_count) {
        // Build substitution: representative term per block.
        std::vector<Term> rep(block_count);
        std::vector<std::string> block_var(block_count);
        for (std::size_t j = 0; j < vars.size(); ++j) {
          if (block_var[blocks[j]].empty()) block_var[blocks[j]] = vars[j];
        }
        for (int k = 0; k < block_count; ++k) {
          rep[k] = choice[k] >= 0 ? Term::Const(constants[choice[k]])
                                  : Term::Var(block_var[k]);
        }
        std::map<std::string, Term> subst;
        for (std::size_t j = 0; j < vars.size(); ++j) {
          subst[vars[j]] = rep[blocks[j]];
        }
        return body(SubstituteTerms(q1, subst));
      }
      if (!assign(b + 1)) return false;  // fresh
      for (std::size_t ci = 0; ci < constants.size(); ++ci) {
        bool taken = false;
        for (int prev = 0; prev < b; ++prev) {
          if (choice[prev] == static_cast<int>(ci)) taken = true;
        }
        if (taken) continue;
        choice[b] = static_cast<int>(ci);
        bool keep = assign(b + 1);
        choice[b] = -1;
        if (!keep) return false;
      }
      return true;
    };
    return assign(0);
  };
  enumerate_partitions = [&](std::size_t i, int max_block) -> bool {
    if (i == vars.size()) return run_with_assignment(max_block);
    for (int b = 0; b <= max_block; ++b) {
      blocks[i] = b;
      int next_max = b == max_block ? max_block + 1 : max_block;
      if (!enumerate_partitions(i + 1, next_max)) return false;
    }
    return true;
  };
  if (vars.empty()) return run_with_assignment(0);
  return enumerate_partitions(0, 0);
}

// Freezes one collapsed query and applies `check` to the resulting canonical
// database. Patterns inconsistent with the collapsed disequalities are
// vacuously satisfied.
bool CheckPattern(const ConjunctiveQuery& collapsed,
                  const ValueFactory& base_factory,
                  const std::function<bool(const PatternInstance&)>& check) {
  VQDR_FAULT_ALLOC("cq.pattern");
  VQDR_COUNTER_INC("cq.containment.canonical_dbs");
  for (const TermComparison& c : collapsed.disequalities()) {
    if (c.lhs == c.rhs) return true;
  }
  ConjunctiveQuery positive(collapsed.head_name(), collapsed.head_terms());
  for (const Atom& a : collapsed.atoms()) positive.AddAtom(a);
  ValueFactory factory = base_factory;
  FrozenQuery frozen = Freeze(positive, factory);
  PatternInstance pattern;
  pattern.instance = std::move(frozen.instance);
  pattern.frozen_head = std::move(frozen.frozen_head);
  return check(pattern);
}

// Aggregate state of one canonical-database sweep.
struct SweepOutcome {
  /// Conjunction over the patterns that were checked. Definitive-false once
  /// any pattern failed (a witness of non-containment); "true so far"
  /// otherwise.
  bool all_passed = true;
  /// A pattern check threw (real or injected allocation failure); the
  /// exception was captured and the sweep stopped.
  bool internal_error = false;
  /// Pattern checks that ran to completion (including a failing one).
  std::uint64_t patterns = 0;
};

// Tests `body` on every canonical database of `q1` sufficient for deciding
// q1 ⊆ q2: for pure q1/q2 the single all-distinct freezing is complete
// (Chandra–Merlin); with disequalities on either side, completeness needs
// every identification pattern (van der Meyden's classical test for CQ≠
// containment). The sweep stops at the first failing pattern (the witness
// of non-containment).
//
// `budget`, when non-null, is charged one step per pattern; a trip stops
// the sweep (check budget->Stopped() to distinguish from completion).
// Exceptions from pattern checks are captured into internal_error and never
// propagate.
SweepOutcome SweepCanonicalDbs(
    const ConjunctiveQuery& q1, const std::set<Value>& all_constants,
    bool need_patterns, guard::Budget* budget,
    const std::function<bool(const PatternInstance&)>& body) {
  ValueFactory base_factory;
  for (Value c : all_constants) base_factory.NoteUsed(c);
  SweepOutcome out;

  // The all-distinct freezing is the only pattern.
  if (!need_patterns) {
    if (!guard::IsComplete(guard::Check(budget))) return out;
    try {
      out.all_passed = CheckPattern(q1, base_factory, body);
      ++out.patterns;
    } catch (...) {
      if (budget != nullptr) budget->MarkInternalError();
      out.internal_error = true;
    }
    return out;
  }

  try {
    ForEachIdentificationPattern(
        q1, all_constants, [&](const ConjunctiveQuery& collapsed) {
          if (!guard::IsComplete(guard::Check(budget))) return false;
          bool pass = CheckPattern(collapsed, base_factory, body);
          ++out.patterns;
          if (!pass && !(budget != nullptr && budget->Stopped())) {
            out.all_passed = false;
          }
          return out.all_passed &&
                 !(budget != nullptr && budget->Stopped());
        });
  } catch (...) {
    if (budget != nullptr) budget->MarkInternalError();
    out.internal_error = true;
  }
  return out;
}

std::set<Value> UnionConstants(const ConjunctiveQuery& a,
                               const ConjunctiveQuery& b) {
  std::set<Value> constants = a.Constants();
  for (Value c : b.Constants()) constants.insert(c);
  return constants;
}

// Folds a finished sweep into the public result shape. A witness is
// definitive regardless of how the sweep ended; otherwise the outcome is
// the budget's stop reason (kComplete when the sweep covered everything).
ContainmentResult ResolveSweep(const SweepOutcome& sweep,
                               guard::Budget* budget) {
  ContainmentResult result;
  result.patterns_checked = sweep.patterns;
  if (!sweep.all_passed) {
    result.contained = false;
    return result;
  }
  if (sweep.internal_error) {
    result.outcome = guard::Outcome::kInternalError;
    return result;
  }
  result.outcome = guard::StopReason(budget);
  return result;
}

}  // namespace

ContainmentResult CqContainedInGoverned(const ConjunctiveQuery& q1,
                                        const ConjunctiveQuery& q2,
                                        const CqContainmentOptions& options) {
  obs::OpScope op(obs::OpKind::kContainment, "cq.containment",
                  options.budget);
  VQDR_COUNTER_INC("cq.containment.checks");
  VQDR_TRACE_SPAN("cq.containment");
  VQDR_CHECK(!q1.UsesNegation() && !q2.UsesNegation())
      << "containment is not supported for CQ¬";
  VQDR_CHECK_EQ(q1.head_arity(), q2.head_arity())
      << "containment between different arities";
  guard::Budget* budget = options.budget;

  auto compute = [&]() -> ContainmentResult {
    ContainmentResult result;
    bool sat1 = true;
    ConjunctiveQuery n1 = q1.PropagateEqualities(&sat1);
    if (!sat1) return result;  // empty query contained in anything
    bool sat2 = true;
    ConjunctiveQuery n2 = q2.PropagateEqualities(&sat2);
    if (!sat2) {
      result.contained = !CqSatisfiable(n1);
      return result;
    }

    bool need_patterns = n1.UsesDisequality() || n2.UsesDisequality();
    SweepOutcome sweep = SweepCanonicalDbs(
        n1, UnionConstants(n1, n2), need_patterns, budget,
        [&](const PatternInstance& pattern) {
          bool want_explain = obs::Wants(options.explain);
          Binding witness;
          bool pass = CqAnswerContains(n2, pattern.instance,
                                       pattern.frozen_head, budget,
                                       want_explain ? &witness : nullptr);
          // A budget stop mid-match makes the answer meaningless; report
          // "pass" so it cannot masquerade as a witness — the sweep records
          // the stop separately.
          if (budget != nullptr && budget->Stopped()) return true;
          if (want_explain) {
            RecordPatternCheck(options.explain, "cq.sub", n2, pattern, pass,
                               witness);
          }
          return pass;
        });
    return ResolveSweep(sweep, budget);
  };

  return memo::CacheThrough<bool>(
      "memo.containment", "cq.sub", options.explain,
      [&] {
        return ContainmentKey("cq.sub", CanonicalCqFingerprint(q1),
                              CanonicalCqFingerprint(q2));
      },
      compute, CachedVerdict, CacheableVerdict);
}

// The bool overloads require completion: they run their governed twin with
// no budget, where only a captured exception leaves no definitive answer.
bool CqContainedIn(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2,
                   const CqContainmentOptions& options) {
  CqContainmentOptions ungoverned = options;
  ungoverned.budget = nullptr;
  ContainmentResult r = CqContainedInGoverned(q1, q2, ungoverned);
  VQDR_CHECK(!r.contained || guard::IsComplete(r.outcome))
      << "canonical-database sweep failed internally";
  return r.contained;
}

bool CqContainedIn(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2) {
  return CqContainedIn(q1, q2, CqContainmentOptions{});
}

bool CqEquivalent(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2) {
  return CqContainedIn(q1, q2) && CqContainedIn(q2, q1);
}

ContainmentResult UcqContainedInGoverned(const UnionQuery& q1,
                                         const UnionQuery& q2,
                                         const CqContainmentOptions& options) {
  obs::OpScope op(obs::OpKind::kContainment, "cq.containment.ucq",
                  options.budget);
  VQDR_COUNTER_INC("cq.containment.ucq_checks");
  VQDR_TRACE_SPAN("cq.containment.ucq");
  VQDR_CHECK(!q1.empty() && !q2.empty()) << "containment with empty UCQ";
  VQDR_CHECK_EQ(q1.head_arity(), q2.head_arity());
  guard::Budget* budget = options.budget;

  auto compute = [&]() -> ContainmentResult {
    bool q2_uses_diseq = false;
    std::set<Value> q2_constants;
    for (const ConjunctiveQuery& d2 : q2.disjuncts()) {
      VQDR_CHECK(!d2.UsesNegation()) << "containment not supported for ¬";
      if (d2.UsesDisequality()) q2_uses_diseq = true;
      for (Value c : d2.Constants()) q2_constants.insert(c);
    }

    ContainmentResult result;
    for (const ConjunctiveQuery& disjunct : q1.disjuncts()) {
      VQDR_CHECK(!disjunct.UsesNegation())
          << "containment not supported for ¬";
      bool sat = true;
      ConjunctiveQuery normalized = disjunct.PropagateEqualities(&sat);
      if (!sat) continue;
      if (!CqSatisfiable(normalized)) continue;

      std::set<Value> constants = q2_constants;
      for (Value c : normalized.Constants()) constants.insert(c);
      bool need_patterns = normalized.UsesDisequality() || q2_uses_diseq;

      SweepOutcome sweep = SweepCanonicalDbs(
          normalized, constants, need_patterns, budget,
          [&](const PatternInstance& pattern) {
            if (obs::Wants(options.explain)) {
              return ExplainedUcqCheck(options.explain, q2, pattern, budget);
            }
            Relation answer = EvaluateUcq(q2, pattern.instance);
            if (budget != nullptr && budget->Stopped()) return true;
            return answer.Contains(pattern.frozen_head);
          });
      ContainmentResult disjunct_result = ResolveSweep(sweep, budget);
      result.patterns_checked += disjunct_result.patterns_checked;
      if (!disjunct_result.contained) {
        result.contained = false;
        result.outcome = guard::Outcome::kComplete;
        return result;
      }
      result.outcome =
          guard::MergeOutcome(result.outcome, disjunct_result.outcome);
      if (!guard::IsComplete(result.outcome)) return result;
    }
    return result;
  };

  return memo::CacheThrough<bool>(
      "memo.containment.ucq", "ucq.sub", options.explain,
      [&] {
        return ContainmentKey("ucq.sub", CanonicalUcqFingerprint(q1),
                              CanonicalUcqFingerprint(q2));
      },
      compute, CachedVerdict, CacheableVerdict);
}

bool UcqContainedIn(const UnionQuery& q1, const UnionQuery& q2,
                    const CqContainmentOptions& options) {
  CqContainmentOptions ungoverned = options;
  ungoverned.budget = nullptr;
  ContainmentResult r = UcqContainedInGoverned(q1, q2, ungoverned);
  VQDR_CHECK(!r.contained || guard::IsComplete(r.outcome))
      << "canonical-database sweep failed internally";
  return r.contained;
}

bool UcqContainedIn(const UnionQuery& q1, const UnionQuery& q2) {
  return UcqContainedIn(q1, q2, CqContainmentOptions{});
}

bool UcqEquivalent(const UnionQuery& q1, const UnionQuery& q2) {
  return UcqContainedIn(q1, q2) && UcqContainedIn(q2, q1);
}

bool CqSatisfiable(const ConjunctiveQuery& q) {
  VQDR_CHECK(!q.UsesNegation()) << "satisfiability not supported for CQ¬";
  bool sat = true;
  ConjunctiveQuery normalized = q.PropagateEqualities(&sat);
  if (!sat) return false;
  // The frozen body with all-distinct variables satisfies every remaining
  // disequality between distinct terms; only x != x (already caught) fails.
  for (const TermComparison& c : normalized.disequalities()) {
    if (c.lhs == c.rhs) return false;
  }
  return true;
}

}  // namespace vqdr
