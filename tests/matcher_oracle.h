#ifndef VQDR_TESTS_MATCHER_ORACLE_H_
#define VQDR_TESTS_MATCHER_ORACLE_H_

// The differential oracle for the indexed homomorphism engine (DESIGN.md
// §12): the pre-rewrite naive backtracking matcher, which scans every tuple
// of the selected atom's relation at every node. Linked only by the MATCHER
// battery (tests/matcher_differential_test.cc) and the matcher fuzz harness
// (fuzz/matcher_fuzz.cc); no production code reaches it.
//
// Behavioural contract: vqdr::ForEachMatch must reproduce this engine's
// on_match sequence byte for byte — same homomorphisms, same order.

#include <functional>
#include <vector>

#include "cq/matcher.h"

namespace vqdr::oracle {

/// ForEachMatch's shape and prelude over the naive engine: a predicate
/// missing from `db`'s schema has no matches (returns true without calling
/// `on_match`), and every atom's arity must agree with its relation. Returns
/// true if the enumeration ran to completion, false if `on_match` stopped it.
bool ForEachMatch(const std::vector<Atom>& atoms, const Instance& db,
                  const Binding& initial,
                  const std::function<bool(const Binding&)>& on_match);

}  // namespace vqdr::oracle

#endif  // VQDR_TESTS_MATCHER_ORACLE_H_
