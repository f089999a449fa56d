#include "gen/enumerate.h"

#include <set>
#include <string>
#include <vector>

#include "base/check.h"
#include "data/isomorphism.h"

namespace vqdr {

namespace {

// All tuples of the given arity over `universe`.
std::vector<Tuple> UniverseTuples(int arity, const std::vector<Value>& universe) {
  std::vector<Tuple> result;
  if (arity == 0) {
    result.push_back(Tuple{});
    return result;
  }
  Tuple current(arity);
  std::function<void(int)> rec = [&](int pos) {
    if (pos == arity) {
      result.push_back(current);
      return;
    }
    for (Value v : universe) {
      current[pos] = v;
      rec(pos + 1);
    }
  };
  rec(0);
  return result;
}

}  // namespace

EnumerationOutcome ForEachInstanceOver(
    const Schema& schema, const std::vector<Value>& universe,
    std::uint64_t max_instances,
    const std::function<bool(const Instance&)>& body,
    guard::Budget* budget) {
  EnumerationOutcome outcome;
  InstanceSpace space(schema, universe);
  if (!space.indexable()) {
    // 2^63+ candidate relations: the space is not enumerable. Report an
    // incomplete (empty) sweep instead of aborting, so budgeted callers
    // degrade gracefully.
    outcome.complete = false;
    outcome.outcome = guard::Outcome::kStepBudgetExhausted;
    return outcome;
  }
  space.ForRange(0, space.total(), [&](std::uint64_t, const Instance& d) {
    if (++outcome.visited > max_instances) {
      outcome.complete = false;
      outcome.outcome = guard::Outcome::kStepBudgetExhausted;
      return false;
    }
    guard::Outcome check = guard::Check(budget);
    if (!guard::IsComplete(check)) {
      outcome.complete = false;
      outcome.outcome = check;
      return false;
    }
    return body(d);
  });
  return outcome;
}

InstanceSpace::InstanceSpace(const Schema& schema,
                             const std::vector<Value>& universe)
    : schema_(schema) {
  std::size_t total_bits = 0;
  for (const RelationDecl& d : schema_.decls()) {
    pools_.push_back(UniverseTuples(d.arity, universe));
    // 2^63+ subsets of one relation: refused, as no sweep could finish it.
    if (pools_.back().size() >= 63u) {
      indexable_ = false;
      total_ = 0;
      return;
    }
    total_bits += pools_.back().size();
  }
  // Indices are 64-bit: past 2^64 - 1 instances only that prefix is
  // reachable, which is more than any sweep can visit.
  total_ = total_bits >= 64 ? ~0ull : 1ull << total_bits;
}

void InstanceSpace::DecodeMasks(std::uint64_t index,
                                std::vector<std::uint64_t>* masks) const {
  masks->assign(pools_.size(), 0);
  // Relation 0 is the most significant digit (the serial recursion's
  // outermost loop), so decode from the last relation upward.
  for (std::size_t i = pools_.size(); i-- > 0;) {
    std::uint64_t radix = 1ull << pools_[i].size();
    (*masks)[i] = index % radix;
    index /= radix;
  }
}

Relation InstanceSpace::RelationForMask(std::size_t i,
                                        std::uint64_t mask) const {
  Relation rel(schema_.decls()[i].arity);
  for (std::size_t t = 0; t < pools_[i].size(); ++t) {
    if (mask & (1ull << t)) rel.Insert(pools_[i][t]);
  }
  return rel;
}

Instance InstanceSpace::At(std::uint64_t index) const {
  VQDR_CHECK(indexable_) << "instance space is not indexable";
  VQDR_CHECK(index < total_) << "instance index out of range";
  std::vector<std::uint64_t> masks;
  DecodeMasks(index, &masks);
  Instance current(schema_);
  for (std::size_t i = 0; i < pools_.size(); ++i) {
    current.Set(schema_.decls()[i].name, RelationForMask(i, masks[i]));
  }
  return current;
}

void InstanceSpace::ForRange(
    std::uint64_t begin, std::uint64_t end,
    const std::function<bool(std::uint64_t, const Instance&)>& body) const {
  VQDR_CHECK(indexable_) << "instance space is not indexable";
  if (begin >= end) return;
  VQDR_CHECK(end <= total_) << "instance range out of bounds";

  std::vector<std::uint64_t> masks;
  DecodeMasks(begin, &masks);
  Instance current(schema_);
  for (std::size_t i = 0; i < pools_.size(); ++i) {
    current.Set(schema_.decls()[i].name, RelationForMask(i, masks[i]));
  }
  for (std::uint64_t index = begin;; ) {
    if (!body(index, current)) return;
    if (++index == end) return;
    // Odometer increment, least-significant relation first; only relations
    // whose digit changed get rebuilt.
    for (std::size_t i = pools_.size(); i-- > 0;) {
      std::uint64_t radix = 1ull << pools_[i].size();
      masks[i] = (masks[i] + 1) % radix;
      current.Set(schema_.decls()[i].name, RelationForMask(i, masks[i]));
      if (masks[i] != 0) break;
    }
  }
}

EnumerationOutcome ForEachInstance(
    const Schema& schema, const EnumerationOptions& options,
    const std::function<bool(const Instance&)>& body) {
  std::vector<Value> universe;
  for (int v = 1; v <= options.domain_size; ++v) universe.push_back(Value(v));
  return ForEachInstanceOver(schema, universe, options.max_instances, body,
                             options.budget);
}

EnumerationOutcome ForEachInstanceUpToIso(
    const Schema& schema, const EnumerationOptions& options,
    const std::function<bool(const Instance&)>& body) {
  std::set<std::string> seen;
  return ForEachInstance(schema, options, [&](const Instance& d) {
    if (!seen.insert(CanonicalKey(d)).second) return true;
    return body(d);
  });
}

}  // namespace vqdr
