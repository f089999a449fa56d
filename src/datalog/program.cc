#include "datalog/program.h"

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>

#include "base/check.h"
#include "base/string_util.h"
#include "cq/matcher.h"
#include "cq/parser.h"

namespace vqdr {

namespace {

// Fires `rule` once, matching `atoms` — its positive body, possibly with one
// atom reading a delta relation — over `db`. Returns the derived head facts.
Relation FireRule(const DatalogRule& rule, const std::vector<Atom>& atoms,
                  const Instance& db) {
  RowBuffer derived(rule.head.arity());
  std::optional<CompiledBody> body;
  ForEachMatch(atoms, db, Binding{}, [&](const Match& m) {
    if (!body.has_value()) {
      body.emplace(m, rule.head.args, rule.disequalities, rule.negated, db);
    }
    if (body->Passes(m)) body->AppendHead(m, derived);
    return true;
  });
  return Relation(std::move(derived));
}

// A prefix no relation name of `schema` starts with, so a delta relation
// named prefix + predicate never shares a name with a user predicate. "Δ"
// is not identifier-shaped, so for parsed programs it is always the answer.
std::string DeltaPrefix(const Schema& schema) {
  std::string prefix = "\u0394";
  auto clashes = [&] {
    for (const RelationDecl& d : schema.decls()) {
      if (d.name.compare(0, prefix.size(), prefix) == 0) return true;
    }
    return false;
  };
  while (clashes()) prefix += "\u0394";
  return prefix;
}

// One semi-naïve firing of `rule`: its positive body with one atom over a
// same-stratum IDB predicate renamed to that predicate's delta relation.
struct DeltaFiring {
  const DatalogRule* rule;
  std::string delta;
  std::vector<Atom> atoms;
};

}  // namespace

bool DatalogRule::IsSafe() const {
  std::set<std::string> positive_vars;
  for (const Atom& a : positive) {
    for (const Term& t : a.args) {
      if (t.is_var()) positive_vars.insert(t.var());
    }
  }
  auto covered = [&](const Term& t) {
    return t.is_const() || positive_vars.count(t.var()) > 0;
  };
  for (const Term& t : head.args) {
    if (!covered(t)) return false;
  }
  for (const Atom& a : negated) {
    for (const Term& t : a.args) {
      if (!covered(t)) return false;
    }
  }
  for (const TermComparison& c : disequalities) {
    if (!covered(c.lhs) || !covered(c.rhs)) return false;
  }
  return true;
}

std::string DatalogRule::ToString() const {
  std::ostringstream out;
  out << head.ToString() << " :- ";
  bool first = true;
  auto sep = [&]() {
    if (!first) out << ", ";
    first = false;
  };
  for (const Atom& a : positive) {
    sep();
    out << a.ToString();
  }
  for (const Atom& a : negated) {
    sep();
    out << "not " << a.ToString();
  }
  for (const TermComparison& c : disequalities) {
    sep();
    out << c.lhs.ToString() << " != " << c.rhs.ToString();
  }
  if (first) out << "true";
  return out.str();
}

std::set<std::string> DatalogProgram::IdbPredicates() const {
  std::set<std::string> idb;
  for (const DatalogRule& r : rules_) idb.insert(r.head.predicate);
  return idb;
}

bool DatalogProgram::IsPositive() const {
  return std::all_of(rules_.begin(), rules_.end(),
                     [](const DatalogRule& r) { return r.negated.empty(); });
}

bool DatalogProgram::IsStratified() const {
  // Build the dependency graph over IDB predicates; an edge p -> q when q
  // occurs in the body of a rule for p, marked negative if negated. The
  // program is stratified iff no cycle contains a negative edge.
  std::set<std::string> idb = IdbPredicates();
  std::map<std::string, std::set<std::string>> pos_edges, neg_edges;
  for (const DatalogRule& r : rules_) {
    for (const Atom& a : r.positive) {
      if (idb.count(a.predicate)) pos_edges[r.head.predicate].insert(a.predicate);
    }
    for (const Atom& a : r.negated) {
      if (idb.count(a.predicate)) neg_edges[r.head.predicate].insert(a.predicate);
    }
  }
  // For each negative edge p -¬-> q, require that q cannot reach p.
  auto reaches = [&](const std::string& from, const std::string& to) {
    std::set<std::string> seen{from};
    std::vector<std::string> stack{from};
    while (!stack.empty()) {
      std::string cur = stack.back();
      stack.pop_back();
      if (cur == to) return true;
      for (const auto* edges : {&pos_edges, &neg_edges}) {
        auto it = edges->find(cur);
        if (it == edges->end()) continue;
        for (const std::string& next : it->second) {
          if (seen.insert(next).second) stack.push_back(next);
        }
      }
    }
    return false;
  };
  for (const auto& [p, targets] : neg_edges) {
    for (const std::string& q : targets) {
      if (q == p || reaches(q, p)) return false;
    }
  }
  return true;
}

StatusOr<Instance> DatalogProgram::Evaluate(const Instance& edb) const {
  for (const DatalogRule& r : rules_) {
    if (!r.IsSafe()) {
      return Status::Error("unsafe datalog rule: " + r.ToString());
    }
  }
  if (!IsStratified()) {
    return Status::Error("datalog program is not stratified");
  }

  std::set<std::string> idb = IdbPredicates();

  // Compute strata: stratum of an IDB predicate = 1 + max over negated IDB
  // deps, >= stratum of positive deps. Iterate to fixpoint (small programs).
  std::map<std::string, int> stratum;
  for (const std::string& p : idb) stratum[p] = 0;
  bool changed = true;
  int iterations = 0;
  while (changed) {
    changed = false;
    VQDR_CHECK_LT(++iterations, 1000) << "stratification did not converge";
    for (const DatalogRule& r : rules_) {
      int& s = stratum[r.head.predicate];
      for (const Atom& a : r.positive) {
        if (idb.count(a.predicate) && stratum[a.predicate] > s) {
          s = stratum[a.predicate];
          changed = true;
        }
      }
      for (const Atom& a : r.negated) {
        if (idb.count(a.predicate) && stratum[a.predicate] + 1 > s) {
          s = stratum[a.predicate] + 1;
          changed = true;
        }
      }
    }
  }
  int max_stratum = 0;
  for (const auto& [p, s] : stratum) max_stratum = std::max(max_stratum, s);

  // The result schema: the EDB schema, then every predicate of the rules.
  Schema schema = edb.schema();
  for (const DatalogRule& r : rules_) {
    schema.Add(r.head.predicate, r.head.arity());
    for (const Atom& a : r.positive) schema.Add(a.predicate, a.arity());
    for (const Atom& a : r.negated) schema.Add(a.predicate, a.arity());
  }

  // The working instance holds every relation of the result and, beside
  // each IDB relation, its delta for the current semi-naïve round. Rules
  // read both in place, so no firing copies the database.
  const std::string delta_prefix = DeltaPrefix(schema);
  Schema working_schema = schema;
  for (const std::string& p : idb) {
    working_schema.Add(delta_prefix + p, *schema.ArityOf(p));
  }
  Instance db(working_schema);
  for (const RelationDecl& d : edb.schema().decls()) {
    db.Set(d.name, edb.Get(d.name));
  }

  for (int s = 0; s <= max_stratum; ++s) {
    // Rules of this stratum.
    std::vector<const DatalogRule*> stratum_rules;
    for (const DatalogRule& r : rules_) {
      if (stratum[r.head.predicate] == s) stratum_rules.push_back(&r);
    }
    if (stratum_rules.empty()) continue;

    // Each rule fires once per positive atom over a same-stratum IDB
    // predicate, with that atom restricted to the delta.
    std::map<std::string, Relation> next_delta;
    for (const DatalogRule* r : stratum_rules) {
      next_delta.try_emplace(r->head.predicate, r->head.arity());
    }
    std::vector<DeltaFiring> firings;
    for (const DatalogRule* r : stratum_rules) {
      for (std::size_t i = 0; i < r->positive.size(); ++i) {
        const std::string& pred = r->positive[i].predicate;
        if (next_delta.count(pred) == 0) continue;
        DeltaFiring f{r, delta_prefix + pred, r->positive};
        f.atoms[i].predicate = f.delta;
        firings.push_back(std::move(f));
      }
    }

    // A firing's new facts go in with one sorted merge and join the next
    // round's delta.
    bool changed = false;
    auto absorb = [&](const DatalogRule& r, Relation derived) {
      Relation added =
          db.GetMutable(r.head.predicate).InsertNew(std::move(derived));
      if (added.empty()) return;
      changed = true;
      Relation& delta = next_delta.at(r.head.predicate);
      if (delta.empty()) {
        delta = std::move(added);
      } else {
        delta.InsertNew(std::move(added));
      }
    };

    // Initial round: full naive application.
    for (const DatalogRule* r : stratum_rules) {
      absorb(*r, FireRule(*r, r->positive, db));
    }
    while (changed) {
      changed = false;
      for (auto& [pred, delta] : next_delta) {
        db.Set(delta_prefix + pred, std::move(delta));
        delta = Relation(db.Get(pred).arity());
      }
      for (const DeltaFiring& f : firings) {
        if (db.Get(f.delta).empty()) continue;
        absorb(*f.rule, FireRule(*f.rule, f.atoms, db));
      }
    }
  }

  // The result: every relation but the deltas.
  Instance result(schema);
  for (const RelationDecl& d : schema.decls()) {
    result.Set(d.name, std::move(db.GetMutable(d.name)));
  }
  return result;
}

StatusOr<Relation> DatalogProgram::Query(const Instance& edb,
                                         const std::string& predicate) const {
  StatusOr<Instance> result = Evaluate(edb);
  if (!result.ok()) return result.status();
  if (!result->schema().Contains(predicate)) {
    return Status::Error("unknown predicate " + predicate);
  }
  return result->Get(predicate);
}

std::string DatalogProgram::ToString() const {
  std::ostringstream out;
  for (const DatalogRule& r : rules_) out << r.ToString() << ";\n";
  return out.str();
}

StatusOr<DatalogProgram> ParseDatalog(std::string_view text, NamePool& pool) {
  DatalogProgram program;
  for (const std::string& piece : Split(text, ';')) {
    std::string_view line = StripWhitespace(piece);
    if (line.empty()) continue;
    StatusOr<ConjunctiveQuery> rule_q = ParseCq(line, pool);
    if (!rule_q.ok()) return rule_q.status();
    const ConjunctiveQuery& q = rule_q.value();
    if (q.UsesEquality()) {
      return Status::Error("equalities not supported in datalog rules");
    }
    DatalogRule rule;
    rule.head = Atom(q.head_name(), q.head_terms());
    rule.positive = q.atoms();
    rule.negated = q.negated_atoms();
    rule.disequalities = q.disequalities();
    program.AddRule(std::move(rule));
  }
  if (program.rules().empty()) {
    return Status::Error("empty datalog program");
  }
  return program;
}

}  // namespace vqdr
