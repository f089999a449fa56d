#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

// The evaluate workload's reference answers, computed directly on the
// generated graph (nodes 1..n) without the library: boolean-matrix walks,
// BFS closure and reachability, and a direct loop per FO template.

#include <set>
#include <vector>

#include "gen.h"

namespace perfbench {

// Pairs joined by a walk of exactly k edges.
std::set<Edge> WalkPairs(int n, const std::vector<Edge>& edges, int k);

// Pairs joined by a path of one or more edges.
std::set<Edge> Closure(int n, const std::vector<Edge>& edges);

// `source` and every node reachable from it.
std::set<int> Reachable(int n, const std::vector<Edge>& edges, int source);

// The answer of FoTemplate(index) under active-domain semantics (the
// quantifiers range over the nodes that occur in an edge).
struct FoAnswer {
  std::set<int> nodes;
  std::set<Edge> pairs;
};
FoAnswer FoReference(int index, int n, const std::vector<Edge>& edges);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
