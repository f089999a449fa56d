// The pre-rewrite naive backtracking matcher, kept as the differential
// oracle for the indexed engine (DESIGN.md §12). Only tests call it, so it
// keeps no obs tallies and takes no budget.

#include "matcher_oracle.h"

#include <string>
#include <utility>
#include <vector>

#include "base/check.h"

namespace vqdr::oracle {

namespace {

// Counts how many argument positions of `atom` are already determined by
// `binding` (constants count as bound).
int BoundPositions(const Atom& atom, const Binding& binding) {
  int bound = 0;
  for (const Term& t : atom.args) {
    if (t.is_const() || binding.count(t.var()) > 0) ++bound;
  }
  return bound;
}

// Recursive backtracking join. `remaining` holds indices of atoms not yet
// matched.
bool MatchRec(const std::vector<Atom>& atoms, const Instance& db,
              std::vector<int>& remaining, Binding& binding,
              const std::function<bool(const Binding&)>& on_match) {
  if (remaining.empty()) return on_match(binding);

  // Pick the most-constrained atom: maximal bound positions, then smaller
  // relation. This keeps the search close to a worst-case-optimal join on
  // the small instances the library processes.
  std::size_t best_i = 0;
  int best_bound = -1;
  std::size_t best_size = 0;
  for (std::size_t i = 0; i < remaining.size(); ++i) {
    const Atom& atom = atoms[remaining[i]];
    int bound = BoundPositions(atom, binding);
    std::size_t size = db.Get(atom.predicate).size();
    if (bound > best_bound || (bound == best_bound && size < best_size)) {
      best_bound = bound;
      best_size = size;
      best_i = i;
    }
  }
  int atom_index = remaining[best_i];
  remaining.erase(remaining.begin() + best_i);
  const Atom& atom = atoms[atom_index];
  const Relation& rel = db.Get(atom.predicate);

  bool keep_going = true;
  for (TupleRef tuple : rel.tuples()) {
    // Try to extend the binding so that atom maps to this tuple.
    std::vector<std::pair<std::string, Value>> added;
    bool consistent = true;
    for (std::size_t pos = 0; pos < atom.args.size(); ++pos) {
      const Term& t = atom.args[pos];
      Value v = tuple[pos];
      if (t.is_const()) {
        if (t.constant() != v) {
          consistent = false;
          break;
        }
        continue;
      }
      auto it = binding.find(t.var());
      if (it != binding.end()) {
        if (it->second != v) {
          consistent = false;
          break;
        }
      } else {
        binding.emplace(t.var(), v);
        added.emplace_back(t.var(), v);
      }
    }
    if (consistent) {
      keep_going = MatchRec(atoms, db, remaining, binding, on_match);
    }
    for (const auto& [var, value] : added) binding.erase(var);
    if (!keep_going) break;
  }

  remaining.insert(remaining.begin() + best_i, atom_index);
  return keep_going;
}

}  // namespace

bool ForEachMatch(const std::vector<Atom>& atoms, const Instance& db,
                  const Binding& initial,
                  const std::function<bool(const Binding&)>& on_match) {
  for (const Atom& atom : atoms) {
    if (!db.schema().Contains(atom.predicate)) return true;
    VQDR_CHECK_EQ(*db.schema().ArityOf(atom.predicate), atom.arity())
        << "atom/relation arity mismatch for " << atom.predicate;
  }
  std::vector<int> remaining(atoms.size());
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    remaining[i] = static_cast<int>(i);
  }
  Binding binding = initial;
  return MatchRec(atoms, db, remaining, binding, on_match);
}

}  // namespace vqdr::oracle
