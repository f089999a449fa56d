#include "fo/evaluator.h"

#include <array>
#include <utility>
#include <vector>

#include "base/check.h"

namespace vqdr {

namespace {

// The quantification range: active domain plus the formula's constants.
std::vector<Value> QuantificationRange(const FoPtr& formula,
                                       const Instance& db) {
  std::set<Value> range = db.ActiveDomain();
  for (Value c : formula->Constants()) range.insert(c);
  return std::vector<Value>(range.begin(), range.end());
}

Value Resolve(const Term& t, const std::map<std::string, Value>& binding) {
  if (t.is_const()) return t.constant();
  auto it = binding.find(t.var());
  VQDR_CHECK(it != binding.end())
      << "unbound variable " << t.var() << " in FO evaluation";
  return it->second;
}

bool EvalRec(const FoFormula& f, const Instance& db,
             std::map<std::string, Value>& binding,
             const std::vector<Value>& range) {
  using Kind = FoFormula::Kind;
  switch (f.kind()) {
    case Kind::kTrue:
      return true;
    case Kind::kFalse:
      return false;
    case Kind::kAtom: {
      const Atom& atom = f.atom();
      if (!db.schema().Contains(atom.predicate)) return false;
      // The probe row lives on the stack; only atoms of more than eight
      // arguments spill to the heap.
      std::array<Value, 8> stack_row;
      Tuple heap_row;
      Value* row = stack_row.data();
      if (atom.args.size() > stack_row.size()) {
        heap_row.resize(atom.args.size());
        row = heap_row.data();
      }
      for (std::size_t i = 0; i < atom.args.size(); ++i) {
        row[i] = Resolve(atom.args[i], binding);
      }
      return db.HasFact(atom.predicate, TupleRef(row, atom.args.size()));
    }
    case Kind::kEquals:
      return Resolve(f.lhs(), binding) == Resolve(f.rhs(), binding);
    case Kind::kNot:
      return !EvalRec(*f.children()[0], db, binding, range);
    case Kind::kAnd: {
      for (const FoPtr& c : f.children()) {
        if (!EvalRec(*c, db, binding, range)) return false;
      }
      return true;
    }
    case Kind::kOr: {
      for (const FoPtr& c : f.children()) {
        if (EvalRec(*c, db, binding, range)) return true;
      }
      return false;
    }
    case Kind::kImplies:
      return !EvalRec(*f.children()[0], db, binding, range) ||
             EvalRec(*f.children()[1], db, binding, range);
    case Kind::kIff:
      return EvalRec(*f.children()[0], db, binding, range) ==
             EvalRec(*f.children()[1], db, binding, range);
    case Kind::kExists:
    case Kind::kForall: {
      bool exists = f.kind() == Kind::kExists;
      // Assign the quantified variables one at a time, recursing on the
      // remaining list via an explicit stack of positions.
      const std::vector<std::string>& vars = f.quantified_vars();
      std::function<bool(std::size_t)> loop = [&](std::size_t i) -> bool {
        if (i == vars.size()) {
          return EvalRec(*f.children()[0], db, binding, range);
        }
        // Save any outer binding of the same name.
        auto saved = binding.find(vars[i]);
        bool had = saved != binding.end();
        Value old = had ? saved->second : Value();
        for (Value v : range) {
          binding[vars[i]] = v;
          bool result = loop(i + 1);
          if (result == exists) {
            if (had) {
              binding[vars[i]] = old;
            } else {
              binding.erase(vars[i]);
            }
            return exists;
          }
        }
        if (had) {
          binding[vars[i]] = old;
        } else {
          binding.erase(vars[i]);
        }
        return !exists;
      };
      if (range.empty()) {
        // Empty range: ∃ is false, ∀ is vacuously true (unless no vars).
        if (vars.empty()) return EvalRec(*f.children()[0], db, binding, range);
        return !exists;
      }
      return loop(0);
    }
  }
  VQDR_CHECK(false) << "unreachable";
  return false;
}

}  // namespace

bool EvalFo(const FoPtr& formula, const Instance& db,
            const std::map<std::string, Value>& binding) {
  VQDR_CHECK(formula != nullptr);
  std::vector<Value> range = QuantificationRange(formula, db);
  std::map<std::string, Value> mutable_binding = binding;
  return EvalRec(*formula, db, mutable_binding, range);
}

bool FoSentenceHolds(const FoPtr& sentence, const Instance& db) {
  VQDR_CHECK(sentence->FreeVariables().empty())
      << "FoSentenceHolds on open formula " << sentence->ToString();
  return EvalFo(sentence, db, {});
}

Relation EvaluateFo(const FoQuery& q, const Instance& db) {
  VQDR_CHECK(q.formula != nullptr);
  // Every free variable of the formula must be an output variable.
  for (const std::string& v : q.formula->FreeVariables()) {
    bool found = false;
    for (const std::string& fv : q.free_vars) {
      if (fv == v) found = true;
    }
    VQDR_CHECK(found) << "free variable " << v << " not in query head";
  }

  std::vector<Value> range = QuantificationRange(q.formula, db);
  RowBuffer answers(q.head_arity());
  if (q.free_vars.empty()) {
    if (FoSentenceHolds(q.formula, db)) answers.AppendRow();
    return Relation(std::move(answers));
  }
  if (range.empty()) return Relation(std::move(answers));

  // EvalRec restores every variable it binds before it returns, so each
  // assignment is evaluated in place.
  std::map<std::string, Value> binding;
  std::function<void(std::size_t)> loop = [&](std::size_t i) {
    if (i == q.free_vars.size()) {
      if (EvalRec(*q.formula, db, binding, range)) {
        Value* row = answers.AppendRow();
        for (const std::string& v : q.free_vars) *row++ = binding.at(v);
      }
      return;
    }
    for (Value v : range) {
      binding[q.free_vars[i]] = v;
      loop(i + 1);
    }
    binding.erase(q.free_vars[i]);
  };
  loop(0);
  return Relation(std::move(answers));
}

}  // namespace vqdr
