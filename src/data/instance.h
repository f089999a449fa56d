#ifndef VQDR_DATA_INSTANCE_H_
#define VQDR_DATA_INSTANCE_H_

#include <functional>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "data/relation.h"
#include "data/schema.h"

namespace vqdr {

/// A (finite) database instance over a schema: one relation per relation
/// symbol. Missing symbols read as empty relations of the schema arity, so
/// instances compare by content, not by which symbols were explicitly
/// populated.
class Instance {
 public:
  /// An empty instance over the given schema.
  explicit Instance(Schema schema = Schema());

  const Schema& schema() const { return schema_; }

  /// Read access; returns an empty relation for unpopulated symbols.
  /// The symbol must be in the schema.
  const Relation& Get(const std::string& name) const;

  /// Mutable access; creates the relation if unpopulated. The symbol must be
  /// in the schema.
  Relation& GetMutable(const std::string& name);

  /// Replaces the contents of `name` (arity-checked against the schema).
  void Set(const std::string& name, Relation relation);

  /// Inserts a fact; shorthand for GetMutable(name).Insert(t).
  bool AddFact(const std::string& name, TupleRef t);

  /// AddFact for a fact written as a braced list of values.
  bool AddFact(const std::string& name, std::initializer_list<Value> t) {
    return AddFact(name, TupleRef(t.begin(), t.size()));
  }

  /// True if the fact is present.
  bool HasFact(const std::string& name, TupleRef t) const;

  /// The active domain adom(D): every value occurring in some tuple.
  std::set<Value> ActiveDomain() const;

  /// Largest value id occurring (0 if the instance has no values).
  std::int64_t MaxValueId() const;

  /// Total number of tuples across all relations.
  std::size_t TupleCount() const;

  /// True if every relation is empty.
  bool Empty() const;

  /// Instance with `map` applied to every value (a database homomorphism
  /// image when `map` is a homomorphism).
  Instance Apply(const std::function<Value(Value)>& map) const;

  /// Per-relation union. Schemas are unioned too.
  Instance UnionWith(const Instance& other) const;

  /// True if every fact of this instance is a fact of `other` and `other`'s
  /// schema contains this schema. (The paper's D' ⊇ D.)
  bool IsSubInstanceOf(const Instance& other) const;

  /// True if `other` is an *extension* of this instance in the paper's
  /// sense: this ⊆ other and other restricted to adom(this) equals this.
  bool IsExtendedBy(const Instance& other) const;

  /// The restriction of this instance to the given set of values: keeps only
  /// tuples whose values all lie in `universe`.
  Instance RestrictTo(const std::set<Value>& universe) const;

  /// Content equality over the union of the two schemas.
  friend bool operator==(const Instance& a, const Instance& b);
  friend bool operator!=(const Instance& a, const Instance& b) {
    return !(a == b);
  }
  friend bool operator<(const Instance& a, const Instance& b);

  /// Deterministic serialization (used for hashing view images).
  std::string ToKey() const;

  /// Multi-line human-readable rendering.
  std::string ToString() const;

 private:
  Schema schema_;
  std::map<std::string, Relation> relations_;
};

}  // namespace vqdr

#endif  // VQDR_DATA_INSTANCE_H_
