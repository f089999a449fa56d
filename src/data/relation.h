#ifndef VQDR_DATA_RELATION_H_
#define VQDR_DATA_RELATION_H_

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "data/tuple.h"
#include "data/value.h"

namespace vqdr {

/// A finite relation: a set of tuples of a fixed arity. Arity-zero relations
/// are the paper's *propositions*: they hold either the empty tuple (true) or
/// nothing (false).
///
/// Tuples are kept sorted and deduplicated, so equality, subset tests and set
/// operations are linear merges and iteration order is deterministic.
class Relation {
 public:
  /// An empty relation of the given arity.
  explicit Relation(int arity = 0) : arity_(arity) {}

  /// A relation initialised with the given tuples (each must match `arity`).
  Relation(int arity, std::vector<Tuple> tuples);

  int arity() const { return arity_; }
  bool empty() const { return tuples_.empty(); }
  std::size_t size() const { return tuples_.size(); }

  /// The tuples in sorted order.
  const std::vector<Tuple>& tuples() const { return tuples_; }

  /// Inserts a tuple; returns true if it was new. Arity-checked.
  bool Insert(const Tuple& t);

  /// Membership test (binary search).
  bool Contains(const Tuple& t) const;

  /// Removes a tuple if present; returns true if it was present.
  bool Erase(const Tuple& t);

  /// Adds every tuple of `batch` (same arity) with one linear merge and
  /// returns the tuples that were not already present.
  Relation InsertNew(Relation batch);

  /// For propositions (arity 0): truth value.
  bool AsBool() const;

  /// Sets a proposition's truth value. Arity must be 0.
  void SetBool(bool value);

  /// Adds every value appearing in any tuple to `out`.
  void CollectActiveDomain(std::set<Value>& out) const;

  /// The relation obtained by applying `map` to every value of every tuple.
  /// Tuples that collide after mapping are merged (set semantics).
  Relation Apply(const std::function<Value(Value)>& map) const;

  /// Set union / intersection / difference with a same-arity relation.
  Relation Union(const Relation& other) const;
  Relation Intersect(const Relation& other) const;
  Relation Difference(const Relation& other) const;

  /// True if every tuple of this relation is in `other`.
  bool IsSubsetOf(const Relation& other) const;

  friend bool operator==(const Relation& a, const Relation& b) {
    return a.arity_ == b.arity_ && a.tuples_ == b.tuples_;
  }
  friend bool operator!=(const Relation& a, const Relation& b) {
    return !(a == b);
  }
  friend bool operator<(const Relation& a, const Relation& b) {
    if (a.arity_ != b.arity_) return a.arity_ < b.arity_;
    return a.tuples_ < b.tuples_;
  }

  /// Renders as "{(…), (…)}" (or "true"/"false" for propositions).
  std::string ToString() const;

 private:
  int arity_;
  std::vector<Tuple> tuples_;  // sorted, unique
};

/// Appends `t` to `tuples`, a buffer headed for
/// Relation(arity, std::move(tuples)), instead of one sorted insert per
/// tuple. When the buffer is full it is first sorted and deduplicated in
/// place and given room for twice its distinct tuples, so it never holds
/// more than about twice the distinct tuples (or 64, if that is more).
void AppendCompacting(std::vector<Tuple>& tuples, Tuple t);

}  // namespace vqdr

#endif  // VQDR_DATA_RELATION_H_
