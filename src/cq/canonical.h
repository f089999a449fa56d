#ifndef VQDR_CQ_CANONICAL_H_
#define VQDR_CQ_CANONICAL_H_

#include <map>
#include <optional>
#include <set>
#include <string>

#include "cq/conjunctive_query.h"
#include "data/instance.h"
#include "data/value.h"

namespace vqdr {

/// The result of freezing a conjunctive query Q into its canonical instance
/// [Q] (the paper's *frozen body*, Section 3): each variable becomes a fresh
/// domain value, constants denote themselves.
struct FrozenQuery {
  /// The instance [Q] over Q's body schema.
  Instance instance{Schema{}};

  /// The image of the head terms x̄ under the freezing assignment.
  Tuple frozen_head;

  /// The freezing assignment (variables → fresh values).
  std::map<std::string, Value> var_to_value;
};

/// Freezes a *pure* CQ (no =, ≠, ¬). Fresh values come from `factory`,
/// which is first advanced past every constant in the query so that frozen
/// variables never collide with constants.
FrozenQuery Freeze(const ConjunctiveQuery& q, ValueFactory& factory);

/// The inverse of freezing: converts an instance into a CQ whose body atoms
/// are the instance's facts. Values in `constants` stay constants; every
/// other value v becomes the variable "v<id>". `head` lists the values that
/// become the head terms (in order); head values outside `constants` become
/// head variables.
ConjunctiveQuery InstanceToQuery(const Instance& instance, const Tuple& head,
                                 const std::set<Value>& constants,
                                 const std::string& head_name = "Q");

/// Finds a homomorphism h from `from` to `to`: a value mapping with
/// h(fact) ∈ to for every fact ∈ from, extending `fixed` and fixing every
/// value in `constants`. Returns the full mapping (adom(from) → adom(to))
/// or nullopt.
std::optional<std::map<Value, Value>> FindInstanceHomomorphism(
    const Instance& from, const Instance& to,
    const std::map<Value, Value>& fixed = {},
    const std::set<Value>& constants = {});

}  // namespace vqdr

#endif  // VQDR_CQ_CANONICAL_H_
