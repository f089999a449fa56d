// libFuzzer harness for the homomorphism matcher (cq/matcher.h): decodes
// the input bytes into a (query, instance) pair and runs the indexed engine
// against the naive backtracking oracle (tests/matcher_oracle.h), trapping
// on any divergence. The decoder is byte-oriented (no text parser in the
// loop) so coverage lands in the join machinery, not the grammar.
//
// The full match SEQUENCES must be identical (the order-preservation
// contract of DESIGN.md §12), and every reported binding is independently
// checked to be a homomorphism (each atom's image is a fact of the
// instance). The first input byte is read and ignored: the checked-in
// corpus starts every input with a config byte, and skipping it keeps each
// input decoding to the same query and instance.
//
// Built two ways by fuzz/CMakeLists.txt:
//   * fuzz_matcher (Clang + -fsanitize=fuzzer): coverage-guided run;
//   * fuzz_matcher_replay (any compiler): deterministic corpus replay for
//     CI, `fuzz_matcher_replay fuzz/corpus/matcher`.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cq/atom.h"
#include "cq/matcher.h"
#include "data/instance.h"
#include "data/schema.h"
#include "data/value.h"
#include "matcher_oracle.h"

namespace {

using vqdr::Atom;
using vqdr::Binding;
using vqdr::Instance;
using vqdr::Schema;
using vqdr::Term;
using vqdr::Tuple;
using vqdr::Value;

// The search tree is exponential in the worst case; both the input size and
// the match count are capped so a fuzzer-grown blowup times out the run
// instead of looking like a hang in the engine.
constexpr std::size_t kMaxInput = 1 << 12;
constexpr std::size_t kMaxMatches = 512;
constexpr int kMaxAtoms = 5;

const Schema& FuzzSchema() {
  static const Schema* schema = new Schema{{"E", 2}, {"P", 1}, {"T", 3}};
  return *schema;
}

struct Cursor {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;

  bool Done() const { return pos >= size; }
  std::uint8_t Next() { return Done() ? 0 : data[pos++]; }
};

// Term encoding: high bit set -> constant in {1..4}, else variable from a
// pool of 6 (reuse across atoms creates joins and self-joins).
Term DecodeTerm(std::uint8_t b) {
  if (b & 0x80) return Term::Const(Value(1 + (b & 0x7f) % 4));
  return Term::Var("v" + std::to_string(b % 6));
}

std::vector<Atom> DecodeAtoms(Cursor& in) {
  int n_atoms = 1 + in.Next() % kMaxAtoms;
  std::vector<Atom> atoms;
  for (int i = 0; i < n_atoms && !in.Done(); ++i) {
    const vqdr::RelationDecl& decl =
        FuzzSchema().decls()[in.Next() % FuzzSchema().decls().size()];
    Atom atom;
    atom.predicate = decl.name;
    for (int j = 0; j < decl.arity; ++j) atom.args.push_back(DecodeTerm(in.Next()));
    atoms.push_back(std::move(atom));
  }
  return atoms;
}

// Fact encoding: predicate selector byte, then arity value bytes over the
// domain {1..5} (overlapping the constant range so constants can hit).
Instance DecodeInstance(Cursor& in) {
  Instance db(FuzzSchema());
  while (!in.Done()) {
    const vqdr::RelationDecl& decl =
        FuzzSchema().decls()[in.Next() % FuzzSchema().decls().size()];
    Tuple fact;
    for (int j = 0; j < decl.arity; ++j) fact.push_back(Value(1 + in.Next() % 5));
    db.AddFact(decl.name, fact);
  }
  return db;
}

bool IsHomomorphism(const std::vector<Atom>& atoms, const Instance& db,
                    const Binding& binding) {
  for (const Atom& atom : atoms) {
    Tuple image;
    for (const Term& t : atom.args) {
      if (t.is_const()) {
        image.push_back(t.constant());
      } else {
        auto it = binding.find(t.var());
        if (it == binding.end()) return false;
        image.push_back(it->second);
      }
    }
    if (!db.Get(atom.predicate).Contains(image)) return false;
  }
  return true;
}

struct EnumerationResult {
  std::vector<Binding> matches;
  bool completed = false;
};

// Collects matches until kMaxMatches from the indexed engine, or from the
// oracle when `oracle` is set. The indexed engine's slot view is recorded
// through its ToBinding() map.
EnumerationResult Enumerate(const std::vector<Atom>& atoms, const Instance& db,
                            bool oracle) {
  EnumerationResult result;
  auto collect = [&result](const Binding& b) {
    result.matches.push_back(b);
    return result.matches.size() < kMaxMatches;
  };
  result.completed =
      oracle ? vqdr::oracle::ForEachMatch(atoms, db, Binding{}, collect)
             : vqdr::ForEachMatch(atoms, db, Binding{},
                                  [&collect](const vqdr::Match& m) {
                                    return collect(m.ToBinding());
                                  });
  return result;
}

void FuzzMatcher(const std::uint8_t* data, std::size_t size) {
  Cursor in{data, size};
  in.Next();  // the corpus's config byte, ignored

  std::vector<Atom> atoms = DecodeAtoms(in);
  Instance db = DecodeInstance(in);

  EnumerationResult got = Enumerate(atoms, db, /*oracle=*/false);

  for (const Binding& b : got.matches) {
    if (!IsHomomorphism(atoms, db, b)) __builtin_trap();
  }

  EnumerationResult want = Enumerate(atoms, db, /*oracle=*/true);

  if (got.completed != want.completed) __builtin_trap();
  if (got.matches != want.matches) __builtin_trap();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0 || size > kMaxInput) return 0;
  FuzzMatcher(data, size);
  return 0;
}
