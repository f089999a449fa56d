#ifndef PERFBENCH_DECIDE_OPS_H_
#define PERFBENCH_DECIDE_OPS_H_

// Decide-workload inputs, shared with the serve workload's determinacy
// traffic, and the staged replay of one decision.

#include <cstdint>
#include <memory>
#include <string>

#include "bench.h"
#include "cq/conjunctive_query.h"
#include "data/value.h"
#include "gen.h"
#include "views/view_set.h"

namespace perfbench {

// Fresh determinacy pairs in the decide workload's class schedule.
class DecideStream {
 public:
  // `max_atoms` > 0 caps the size of R below the family's own maximum.
  explicit DecideStream(std::uint64_t seed, int max_atoms = 0);
  // `tag` is passed to DrawDecideCase.
  DecideCase Next(const std::string& tag);

 private:
  Rng rng_;
  int max_atoms_;
  std::uint64_t index_ = 0;
};

// A pair parsed the way the service parses a request: one name pool per
// pair, views in order, then the query.
struct DecideOp {
  std::unique_ptr<vqdr::NamePool> pool;
  vqdr::ViewSet views;
  vqdr::ConjunctiveQuery query;
  bool determined = false;
  std::string text;
};
DecideOp ParseDecideOp(const DecideCase& c);

// The decision replayed through the public calls
// DecideUnrestrictedDeterminacy makes — Freeze and ChaseSchema (the
// canonical database), ViewSet::Apply, ViewInverse, CqAnswerContains and
// InstanceToQuery — each under its own span.
struct ReplayResult {
  bool determined = false;
  std::size_t image = 0;    // |V([Q])|
  std::size_t inverse = 0;  // |V_∅^{-1}(V([Q]))|
};
ReplayResult ReplayDecision(const vqdr::ViewSet& views,
                            const vqdr::ConjunctiveQuery& q, SpanLog* log,
                            std::uint64_t op);

}  // namespace perfbench

#endif  // PERFBENCH_DECIDE_OPS_H_
