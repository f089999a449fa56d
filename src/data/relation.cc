#include "data/relation.h"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "base/check.h"

namespace vqdr {

Relation::Relation(int arity, std::vector<Tuple> tuples)
    : arity_(arity), tuples_(std::move(tuples)) {
  for (const Tuple& t : tuples_) {
    VQDR_CHECK_EQ(static_cast<int>(t.size()), arity_)
        << "tuple arity mismatch in relation constructor";
  }
  std::sort(tuples_.begin(), tuples_.end());
  tuples_.erase(std::unique(tuples_.begin(), tuples_.end()), tuples_.end());
}

bool Relation::Insert(const Tuple& t) {
  VQDR_CHECK_EQ(static_cast<int>(t.size()), arity_)
      << "tuple arity mismatch on insert";
  auto it = std::lower_bound(tuples_.begin(), tuples_.end(), t);
  if (it != tuples_.end() && *it == t) return false;
  tuples_.insert(it, t);
  return true;
}

bool Relation::Contains(const Tuple& t) const {
  return std::binary_search(tuples_.begin(), tuples_.end(), t);
}

bool Relation::Erase(const Tuple& t) {
  auto it = std::lower_bound(tuples_.begin(), tuples_.end(), t);
  if (it == tuples_.end() || *it != t) return false;
  tuples_.erase(it);
  return true;
}

Relation Relation::InsertNew(Relation batch) {
  VQDR_CHECK_EQ(arity_, batch.arity_) << "arity mismatch in InsertNew";
  Relation added(arity_);
  std::set_difference(std::make_move_iterator(batch.tuples_.begin()),
                      std::make_move_iterator(batch.tuples_.end()),
                      tuples_.begin(), tuples_.end(),
                      std::back_inserter(added.tuples_));
  if (added.empty()) return added;
  std::vector<Tuple> merged;
  merged.reserve(tuples_.size() + added.size());
  std::merge(std::make_move_iterator(tuples_.begin()),
             std::make_move_iterator(tuples_.end()), added.tuples_.begin(),
             added.tuples_.end(), std::back_inserter(merged));
  tuples_ = std::move(merged);
  return added;
}

bool Relation::AsBool() const {
  VQDR_CHECK_EQ(arity_, 0) << "AsBool on non-proposition";
  return !tuples_.empty();
}

void Relation::SetBool(bool value) {
  VQDR_CHECK_EQ(arity_, 0) << "SetBool on non-proposition";
  tuples_.clear();
  if (value) tuples_.push_back(Tuple{});
}

void Relation::CollectActiveDomain(std::set<Value>& out) const {
  for (const Tuple& t : tuples_) {
    for (Value v : t) out.insert(v);
  }
}

Relation Relation::Apply(const std::function<Value(Value)>& map) const {
  Relation result(arity_);
  for (const Tuple& t : tuples_) {
    Tuple mapped;
    mapped.reserve(t.size());
    for (Value v : t) mapped.push_back(map(v));
    result.Insert(mapped);
  }
  return result;
}

Relation Relation::Union(const Relation& other) const {
  VQDR_CHECK_EQ(arity_, other.arity_) << "arity mismatch in Union";
  Relation result(arity_);
  std::set_union(tuples_.begin(), tuples_.end(), other.tuples_.begin(),
                 other.tuples_.end(), std::back_inserter(result.tuples_));
  return result;
}

Relation Relation::Intersect(const Relation& other) const {
  VQDR_CHECK_EQ(arity_, other.arity_) << "arity mismatch in Intersect";
  Relation result(arity_);
  std::set_intersection(tuples_.begin(), tuples_.end(), other.tuples_.begin(),
                        other.tuples_.end(),
                        std::back_inserter(result.tuples_));
  return result;
}

Relation Relation::Difference(const Relation& other) const {
  VQDR_CHECK_EQ(arity_, other.arity_) << "arity mismatch in Difference";
  Relation result(arity_);
  std::set_difference(tuples_.begin(), tuples_.end(), other.tuples_.begin(),
                      other.tuples_.end(), std::back_inserter(result.tuples_));
  return result;
}

bool Relation::IsSubsetOf(const Relation& other) const {
  VQDR_CHECK_EQ(arity_, other.arity_) << "arity mismatch in IsSubsetOf";
  return std::includes(other.tuples_.begin(), other.tuples_.end(),
                       tuples_.begin(), tuples_.end());
}

std::string Relation::ToString() const {
  if (arity_ == 0) return tuples_.empty() ? "false" : "true";
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < tuples_.size(); ++i) {
    if (i > 0) out << ", ";
    out << TupleToString(tuples_[i]);
  }
  out << "}";
  return out.str();
}

void AppendCompacting(std::vector<Tuple>& tuples, Tuple t) {
  constexpr std::size_t kMinCompact = 64;
  if (tuples.size() == tuples.capacity() && tuples.size() >= kMinCompact) {
    std::sort(tuples.begin(), tuples.end());
    tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());
    tuples.reserve(2 * tuples.size());
  }
  tuples.push_back(std::move(t));
}

}  // namespace vqdr
