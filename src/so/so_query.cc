#include "so/so_query.h"

#include <cmath>
#include <functional>
#include <sstream>

#include "base/check.h"
#include "fo/evaluator.h"
#include "gen/enumerate.h"

namespace vqdr {

std::string SoQuery::ToString() const {
  std::ostringstream out;
  out << (existential ? "exists-SO " : "forall-SO ");
  for (std::size_t i = 0; i < relation_vars.size(); ++i) {
    if (i > 0) out << ", ";
    out << relation_vars[i].name << "/" << relation_vars[i].arity;
  }
  out << " . " << matrix.ToString();
  return out.str();
}

StatusOr<Relation> EvaluateSo(const SoQuery& q, const Instance& db,
                              const SoBudget& budget) {
  VQDR_CHECK(q.matrix.formula != nullptr);

  // Universe: active domain plus the matrix's constants.
  std::set<Value> universe_set = db.ActiveDomain();
  for (Value c : q.matrix.formula->Constants()) universe_set.insert(c);
  std::vector<Value> universe(universe_set.begin(), universe_set.end());

  // Budget checks on the candidate tuples of each quantified relation
  // (|universe|^arity of them), before any pool is built.
  std::uint64_t total_assignments = 1;
  for (const RelationDecl& decl : q.relation_vars) {
    std::uint64_t tuples = 1;  // saturated at UINT64_MAX
    const std::uint64_t n = universe.size();
    for (int i = 0; i < decl.arity; ++i) {
      tuples = n != 0 && tuples > UINT64_MAX / n ? UINT64_MAX : tuples * n;
    }
    if (tuples > budget.max_tuples_per_relation) {
      return Status::Error("SO budget exceeded: relation " + decl.name +
                           " has " + std::to_string(tuples) +
                           " candidate tuples (max " +
                           std::to_string(budget.max_tuples_per_relation) +
                           ")");
    }
    // 2^tuples assignments for this relation.
    if (tuples >= 63) return Status::Error("SO budget overflow");
    std::uint64_t count = 1ull << tuples;
    if (total_assignments > budget.max_assignments / count) {
      return Status::Error("SO budget exceeded: too many assignments");
    }
    total_assignments *= count;
  }

  // Extended schema: base plus quantified relations, whose assignments are
  // the instances of `space` (relation 0 the most significant digit, subset
  // masks ascending).
  Schema extended = db.schema();
  Schema quantified;
  for (const RelationDecl& decl : q.relation_vars) {
    extended.Add(decl.name, decl.arity);
    quantified.Add(decl.name, decl.arity);
  }
  const InstanceSpace space(quantified, universe);

  // Enumerate assignments of free variables over the universe; for each,
  // search (∃) or verify (∀) over all relation assignments.
  Relation result(q.head_arity());

  // Checks the matrix truth over all relation assignments: ∃ stops at the
  // first assignment where it holds, ∀ at the first where it fails.
  auto decide = [&](const std::map<std::string, Value>& binding) -> bool {
    Instance extended_db(extended);
    for (const RelationDecl& d : db.schema().decls()) {
      extended_db.Set(d.name, db.Get(d.name));
    }
    bool found = false;  // an assignment where the matrix holds (∃) or fails
    space.ForRange(0, space.total(), [&](std::uint64_t, const Instance& rels) {
      for (const RelationDecl& d : q.relation_vars) {
        extended_db.Set(d.name, rels.Get(d.name));
      }
      found = EvalFo(q.matrix.formula, extended_db, binding) == q.existential;
      return !found;
    });
    return q.existential ? found : !found;
  };

  if (q.head_arity() == 0) {
    if (decide({})) result.Insert(Tuple{});
    return result;
  }
  if (universe.empty()) return result;

  std::map<std::string, Value> binding;
  std::function<void(std::size_t)> loop = [&](std::size_t i) {
    if (i == q.matrix.free_vars.size()) {
      if (decide(binding)) {
        Tuple answer;
        for (const std::string& v : q.matrix.free_vars) {
          answer.push_back(binding.at(v));
        }
        result.Insert(answer);
      }
      return;
    }
    for (Value v : universe) {
      binding[q.matrix.free_vars[i]] = v;
      loop(i + 1);
    }
    binding.erase(q.matrix.free_vars[i]);
  };
  loop(0);
  return result;
}

StatusOr<bool> SoSentenceHolds(const SoQuery& q, const Instance& db,
                               const SoBudget& budget) {
  VQDR_CHECK_EQ(q.head_arity(), 0) << "SoSentenceHolds on non-Boolean query";
  StatusOr<Relation> result = EvaluateSo(q, db, budget);
  if (!result.ok()) return result.status();
  return !result->empty();
}

}  // namespace vqdr
