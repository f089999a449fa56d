#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

// Seeded input generators for the three workloads. Every input is built
// from the benchmark's own RNG and carries the label it was constructed
// with, so answers are checked against the construction, not against the
// engine under test.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// splitmix64. The benchmark's own generator, so a change to the library's
// RNG never changes the benchmark's inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  // Uniform integer in [lo, hi].
  int Uniform(int lo, int hi);
  bool Chance(double p);

 private:
  std::uint64_t state_;
};

// An independent stream of `seed` for one purpose (warm-up, timed phase,
// one connection, ...).
std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t stream);

// FNV-1a over `text`, folded into `h`: the operation-sequence digest.
std::uint64_t Fnv(std::uint64_t h, const std::string& text);
inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

// ---- determinacy pairs ---------------------------------------------------

// View families of the decide workload.
enum class Family {
  kPathChain,      // path views, R a chain over them
  kPathStar,       // path views, R a star over them
  kPathCycle,      // path views, R a Boolean cycle over them
  kRandom,         // random multi-atom CQ views over A/2, B/2, C/3
  kProjectSelect,  // single-atom project-select views over T/4
};
const char* FamilyName(Family f);

// A (views, query) pair as CQ rule text. Determined pairs are Q = R∘V (the
// expansion of a random rewriting R over the views); the others read a
// relation no view mentions, so two instances that differ only there have
// the same view image and different answers.
struct DecideCase {
  std::vector<std::string> views;
  std::string query;
  // R, the rewriting over the views (its expansion is the query of a
  // determined pair).
  std::string rewriting;
  bool determined = false;
  // Distinct body atoms of the query: the size of level 0 of its chase.
  int query_atoms = 0;
};

// `size` (>= 1) bounds the number of atoms in R. `tag` makes names unique
// (a fresh query head and hidden relation); pass "" for none.
DecideCase DrawDecideCase(Rng& rng, Family family, bool determined, int size,
                          const std::string& tag);

// ---- containment pairs ---------------------------------------------------

// q1 ⊆ q2 by construction: q1 is q2 with variables identified and atoms
// added (so q2 maps into q1). Not contained: q2 also needs a relation q1
// never mentions. `unique` is a constant both sides carry, which makes the
// pair new even to a cache keyed on canonical (renaming-invariant) forms.
struct ContainmentCase {
  std::string q1;
  std::string q2;
  bool contained = false;
};
ContainmentCase DrawContainmentCase(Rng& rng, bool contained,
                                    const std::string& unique);

// ---- evaluation inputs ---------------------------------------------------

using Edge = std::pair<int, int>;

// A random directed graph on nodes 1..n with `edges` distinct non-loop
// edges.
std::vector<Edge> RandomGraph(Rng& rng, int n, int edges);

// Facts of a random instance over A/2, B/2, C/3 with values 1..n.
struct Fact {
  std::string relation;
  std::vector<int> args;
};
std::vector<Fact> RandomABCInstance(Rng& rng, int n, int facts_per_relation);

// The FO templates of the evaluate workload (¬ and ∀ over a graph E).
inline constexpr int kFoTemplates = 6;
const char* FoTemplate(int index);

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
