#include "data/instance.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <sstream>
#include <utility>

#include "base/check.h"

namespace vqdr {

namespace {

// Shared empty relations per arity, so Get() can return a reference for
// unpopulated symbols without mutating the instance. Get() runs on many
// threads at once, so the map is guarded by a mutex; its nodes never move,
// so a returned reference stays valid after the lock is released.
const Relation& EmptyRelationOfArity(int arity) {
  static std::mutex mu;
  static auto* cache = new std::map<int, Relation>();
  std::lock_guard<std::mutex> lock(mu);
  return cache->try_emplace(arity, arity).first->second;
}

}  // namespace

Instance::Instance(Schema schema) : schema_(std::move(schema)) {}

const Relation& Instance::Get(const std::string& name) const {
  auto arity = schema_.ArityOf(name);
  VQDR_CHECK(arity.has_value()) << "unknown relation " << name;
  auto it = relations_.find(name);
  if (it == relations_.end()) return EmptyRelationOfArity(*arity);
  return it->second;
}

Relation& Instance::GetMutable(const std::string& name) {
  auto arity = schema_.ArityOf(name);
  VQDR_CHECK(arity.has_value()) << "unknown relation " << name;
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    it = relations_.emplace(name, Relation(*arity)).first;
  }
  return it->second;
}

void Instance::Set(const std::string& name, Relation relation) {
  auto arity = schema_.ArityOf(name);
  VQDR_CHECK(arity.has_value()) << "unknown relation " << name;
  VQDR_CHECK_EQ(*arity, relation.arity())
      << "arity mismatch setting relation " << name;
  relations_[name] = std::move(relation);
}

bool Instance::AddFact(const std::string& name, TupleRef t) {
  return GetMutable(name).Insert(t);
}

bool Instance::HasFact(const std::string& name, TupleRef t) const {
  return Get(name).Contains(t);
}

std::set<Value> Instance::ActiveDomain() const {
  std::set<Value> adom;
  for (const auto& [name, rel] : relations_) rel.CollectActiveDomain(adom);
  return adom;
}

std::int64_t Instance::MaxValueId() const {
  std::int64_t max_id = 0;
  for (const auto& [name, rel] : relations_) {
    for (TupleRef t : rel.tuples()) {
      for (Value v : t) max_id = std::max(max_id, v.id);
    }
  }
  return max_id;
}

std::size_t Instance::TupleCount() const {
  std::size_t n = 0;
  for (const auto& [name, rel] : relations_) n += rel.size();
  return n;
}

bool Instance::Empty() const { return TupleCount() == 0; }

Instance Instance::Apply(const std::function<Value(Value)>& map) const {
  Instance result(schema_);
  for (const auto& [name, rel] : relations_) {
    result.Set(name, rel.Apply(map));
  }
  return result;
}

Instance Instance::UnionWith(const Instance& other) const {
  Instance result(schema_.UnionWith(other.schema_));
  for (const auto& [name, rel] : relations_) result.Set(name, rel);
  for (const auto& [name, rel] : other.relations_) {
    Relation& target = result.GetMutable(name);
    target = target.Union(rel);
  }
  return result;
}

bool Instance::IsSubInstanceOf(const Instance& other) const {
  for (const RelationDecl& d : schema_.decls()) {
    if (!other.schema_.Contains(d.name)) {
      if (!Get(d.name).empty()) return false;
      continue;
    }
    if (!Get(d.name).IsSubsetOf(other.Get(d.name))) return false;
  }
  return true;
}

bool Instance::IsExtendedBy(const Instance& other) const {
  if (!IsSubInstanceOf(other)) return false;
  Instance restricted = other.RestrictTo(ActiveDomain());
  // Compare over this schema (the extension may populate extra symbols only
  // with tuples using new values).
  for (const RelationDecl& d : schema_.decls()) {
    if (restricted.schema_.Contains(d.name)) {
      if (Get(d.name) != restricted.Get(d.name)) return false;
    } else if (!Get(d.name).empty()) {
      return false;
    }
  }
  return true;
}

Instance Instance::RestrictTo(const std::set<Value>& universe) const {
  Instance result(schema_);
  for (const auto& [name, rel] : relations_) {
    // A filtered sorted relation is still sorted: the constructor's sort
    // finds nothing to do.
    RowBuffer filtered(rel.arity());
    filtered.Reserve(rel.size());
    for (TupleRef t : rel.tuples()) {
      bool inside = true;
      for (Value v : t) {
        if (universe.find(v) == universe.end()) {
          inside = false;
          break;
        }
      }
      if (inside) filtered.Append(t);
    }
    result.Set(name, Relation(std::move(filtered)));
  }
  return result;
}

bool operator==(const Instance& a, const Instance& b) {
  Schema all = a.schema_.UnionWith(b.schema_);
  for (const RelationDecl& d : all.decls()) {
    // Both arms are lvalues, so neither relation is copied.
    const Relation& ra = a.schema_.Contains(d.name)
                             ? a.Get(d.name)
                             : EmptyRelationOfArity(d.arity);
    const Relation& rb = b.schema_.Contains(d.name)
                             ? b.Get(d.name)
                             : EmptyRelationOfArity(d.arity);
    if (ra != rb) return false;
  }
  return true;
}

bool operator<(const Instance& a, const Instance& b) {
  return a.ToKey() < b.ToKey();
}

std::string Instance::ToKey() const {
  std::ostringstream out;
  for (const RelationDecl& d : schema_.decls()) {
    const Relation& rel = Get(d.name);
    if (rel.empty()) continue;
    out << d.name << "=";
    for (TupleRef t : rel.tuples()) {
      out << "(";
      for (std::size_t i = 0; i < t.size(); ++i) {
        if (i > 0) out << ",";
        out << t[i].id;
      }
      out << ")";
    }
    out << ";";
  }
  return out.str();
}

std::string Instance::ToString() const {
  std::ostringstream out;
  for (const RelationDecl& d : schema_.decls()) {
    out << "  " << d.name << " = " << Get(d.name).ToString() << "\n";
  }
  return out.str();
}

}  // namespace vqdr
