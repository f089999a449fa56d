#include "cq/containment.h"

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <span>
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
// verdicts are cached: SweepCanonicalDbs reports every witness with outcome
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

// Records one pattern check into the explain log: a replayable witness when
// `witness_query` — right disjunct number `disjunct` of q2 as given — maps
// into the canonical database hitting the frozen head, the refuting
// canonical database when `witness_query` is null (no right disjunct does).
void RecordPatternCheck(obs::ExplainLog* log, const char* label,
                        const FrozenQuery& pattern,
                        const ConjunctiveQuery* witness_query,
                        std::size_t disjunct, const Binding& witness_binding) {
  obs::ExplainEvent e;
  e.label = label;
  e.stats["instance_facts"] =
      static_cast<std::int64_t>(pattern.instance.TupleCount());
  if (witness_query != nullptr) {
    e.kind = obs::ExplainKind::kWitness;
    e.stats["disjunct"] = static_cast<std::int64_t>(disjunct);
    e.witness = MakeContainmentWitness(*witness_query, pattern.instance,
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
        return body(q1.MapTerms([&subst](const Term& t) {
          return t.is_var() ? subst.at(t.var()) : t;
        }));
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
                  const std::function<bool(const FrozenQuery&)>& check) {
  VQDR_FAULT_ALLOC("cq.pattern");
  VQDR_COUNTER_INC("cq.containment.canonical_dbs");
  for (const TermComparison& c : collapsed.disequalities()) {
    if (c.lhs == c.rhs) return true;
  }
  ConjunctiveQuery positive(collapsed.head_name(), collapsed.head_terms());
  for (const Atom& a : collapsed.atoms()) positive.AddAtom(a);
  ValueFactory factory = base_factory;
  return check(Freeze(positive, factory));
}

// Decides lhs ⊆ rhs for lists of disjuncts (Sagiv–Yannakakis): every
// canonical database of every left disjunct must satisfy some right
// disjunct. A CQ is its one-disjunct union. Every disjunct is normalised
// once by PropagateEqualities, and the unsatisfiable ones are dropped: an
// empty left disjunct is contained in anything, an empty right one matches
// nothing. For a pure left disjunct and pure right disjuncts the single
// all-distinct freezing is complete (Chandra–Merlin); with ≠ in the left
// disjunct or in any right one, completeness needs every identification
// pattern (van der Meyden's classical test for CQ≠ containment). The sweep
// stops at the first failing pattern (the witness of non-containment).
//
// `options.budget`, when non-null, is charged one step per pattern and
// polled by the matcher; a stop ends the sweep, and the result carries the
// stop reason unless a witness was already found. An exception from a
// pattern check (real or injected allocation failure) is captured as
// kInternalError and never propagates. With an explain log attached, every
// pattern check appends its witness or refutation under `label`.
ContainmentResult SweepCanonicalDbs(std::span<const ConjunctiveQuery> lhs,
                                    std::span<const ConjunctiveQuery> rhs,
                                    const char* label,
                                    const CqContainmentOptions& options) {
  guard::Budget* budget = options.budget;
  obs::ExplainLog* log =
      obs::Wants(options.explain) ? options.explain : nullptr;
  auto stopped = [budget] { return budget != nullptr && budget->Stopped(); };

  // The satisfiable right disjuncts, and their index in rhs as given.
  std::vector<ConjunctiveQuery> right;
  std::vector<std::size_t> right_index;
  std::set<Value> right_constants;
  bool right_disequality = false;
  for (std::size_t i = 0; i < rhs.size(); ++i) {
    VQDR_CHECK(!rhs[i].UsesNegation()) << "containment not supported for ¬";
    bool sat = true;
    ConjunctiveQuery normalized = rhs[i].PropagateEqualities(&sat);
    if (!sat) continue;
    right_disequality = right_disequality || normalized.UsesDisequality();
    for (Value c : normalized.Constants()) right_constants.insert(c);
    right.push_back(std::move(normalized));
    right_index.push_back(i);
  }

  // Matches the right disjuncts in order against one canonical database. A
  // budget stop mid-match makes the answer meaningless; report "pass" so it
  // cannot masquerade as a witness — the sweep records the stop separately.
  std::function<bool(const FrozenQuery&)> satisfies_right =
      [&](const FrozenQuery& pattern) {
        Binding witness;
        for (std::size_t i = 0; i < right.size(); ++i) {
          bool pass = CqAnswerContains(right[i], pattern.instance,
                                       pattern.frozen_head, budget,
                                       log != nullptr ? &witness : nullptr);
          if (stopped()) return true;
          if (pass) {
            if (log != nullptr) {
              RecordPatternCheck(log, label, pattern, &right[i],
                                 right_index[i], witness);
            }
            return true;
          }
        }
        if (log != nullptr) {
          RecordPatternCheck(log, label, pattern, nullptr, 0, {});
        }
        return false;
      };

  ContainmentResult result;
  // Checks one canonical database; false ends the sweep (a failing pattern
  // or a stop).
  auto visit = [&](const ConjunctiveQuery& collapsed,
                   const ValueFactory& factory) {
    if (!guard::IsComplete(guard::Check(budget))) return false;
    bool pass = CheckPattern(collapsed, factory, satisfies_right);
    ++result.patterns_checked;
    if (!pass && !stopped()) result.contained = false;
    return result.contained && !stopped();
  };
  try {
    for (const ConjunctiveQuery& disjunct : lhs) {
      VQDR_CHECK(!disjunct.UsesNegation())
          << "containment not supported for ¬";
      bool sat = true;
      ConjunctiveQuery left = disjunct.PropagateEqualities(&sat);
      if (!sat) continue;
      std::set<Value> constants = right_constants;
      for (Value c : left.Constants()) constants.insert(c);
      ValueFactory factory;
      for (Value c : constants) factory.NoteUsed(c);
      bool swept =
          left.UsesDisequality() || right_disequality
              ? ForEachIdentificationPattern(
                    left, constants,
                    [&](const ConjunctiveQuery& collapsed) {
                      return visit(collapsed, factory);
                    })
              : visit(left, factory);
      if (!swept) {
        // A witness is definitive however the sweep ended; otherwise the
        // result is the budget's stop reason.
        if (result.contained) result.outcome = guard::StopReason(budget);
        return result;
      }
    }
  } catch (...) {
    if (budget != nullptr) budget->MarkInternalError();
    result.outcome = guard::Outcome::kInternalError;
  }
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

  return memo::CacheThrough<bool>(
      "memo.containment", "cq.sub", options.explain,
      [&] {
        return ContainmentKey("cq.sub", CanonicalCqFingerprint(q1),
                              CanonicalCqFingerprint(q2));
      },
      [&] {
        return SweepCanonicalDbs({&q1, 1}, {&q2, 1}, "cq.sub", options);
      },
      CachedVerdict, CacheableVerdict);
}

// The bool forms require completion: they run their governed twin with no
// budget, where only a captured exception leaves no definitive answer.
bool CqContainedIn(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2) {
  ContainmentResult r = CqContainedInGoverned(q1, q2, CqContainmentOptions{});
  VQDR_CHECK(!r.contained || guard::IsComplete(r.outcome))
      << "canonical-database sweep failed internally";
  return r.contained;
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

  return memo::CacheThrough<bool>(
      "memo.containment.ucq", "ucq.sub", options.explain,
      [&] {
        return ContainmentKey("ucq.sub", CanonicalUcqFingerprint(q1),
                              CanonicalUcqFingerprint(q2));
      },
      [&] {
        return SweepCanonicalDbs(q1.disjuncts(), q2.disjuncts(), "ucq.sub",
                                 options);
      },
      CachedVerdict, CacheableVerdict);
}

bool UcqContainedIn(const UnionQuery& q1, const UnionQuery& q2) {
  ContainmentResult r =
      UcqContainedInGoverned(q1, q2, CqContainmentOptions{});
  VQDR_CHECK(!r.contained || guard::IsComplete(r.outcome))
      << "canonical-database sweep failed internally";
  return r.contained;
}

bool UcqEquivalent(const UnionQuery& q1, const UnionQuery& q2) {
  return UcqContainedIn(q1, q2) && UcqContainedIn(q2, q1);
}

bool CqSatisfiable(const ConjunctiveQuery& q) {
  VQDR_CHECK(!q.UsesNegation()) << "satisfiability not supported for CQ¬";
  // The frozen body with all-distinct variables satisfies every disequality
  // between distinct terms; PropagateEqualities flags the rest.
  bool sat = true;
  q.PropagateEqualities(&sat);
  return sat;
}

}  // namespace vqdr
