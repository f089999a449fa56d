#include "cq/fingerprint.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "base/check.h"
#include "cq/minimize.h"
#include "obs/obs_macros.h"
#include "obs/trace.h"

namespace vqdr {

namespace {

// Budgets for the individualization-refinement search. Exceeding any of them
// means "no fingerprint" — callers bypass the cache, never a wrong key.
constexpr std::size_t kMaxVariables = 200;
constexpr std::size_t kMaxLeaves = 512;
constexpr std::size_t kMaxNodes = 8192;

std::uint64_t Mix(std::uint64_t h, std::uint64_t v) {
  v *= 0x9e3779b97f4a7c15ull;
  v ^= v >> 32;
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t HashString(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64.
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// The canonical-renaming search over one normalized (equality-free,
// negation-free) CQ. Colors are 64-bit values; equal colors across two
// isomorphic queries are guaranteed by construction (each color is a pure
// function of isomorphism-invariant structure), and equal colors *within*
// one query mean "not yet distinguished". The exact leaf serialization makes
// accidental hash collisions harmless for soundness: they can only make the
// search coarser (more leaves), and identically so in isomorphic copies.
class Canonicalizer {
 public:
  explicit Canonicalizer(const ConjunctiveQuery& q) {
    for (const std::string& v : q.AllVariables()) {
      var_index_[v] = static_cast<int>(vars_.size());
      vars_.push_back(v);
    }
    head_.reserve(q.head_terms().size());
    for (const Term& t : q.head_terms()) head_.push_back(Ref(t));
    atoms_.reserve(q.atoms().size());
    for (const Atom& a : q.atoms()) {
      AtomRef ar;
      ar.predicate = a.predicate;
      ar.args.reserve(a.args.size());
      for (const Term& t : a.args) ar.args.push_back(Ref(t));
      atoms_.push_back(std::move(ar));
    }
    for (const TermComparison& d : q.disequalities()) {
      diseqs_.push_back({Ref(d.lhs), Ref(d.rhs)});
    }
    occurrences_.resize(vars_.size());
    for (std::size_t ai = 0; ai < atoms_.size(); ++ai) {
      const AtomRef& a = atoms_[ai];
      for (std::size_t p = 0; p < a.args.size(); ++p) {
        if (a.args[p].var >= 0) {
          occurrences_[a.args[p].var].push_back(
              {static_cast<int>(ai), static_cast<int>(p)});
        }
      }
    }
  }

  // Runs the search; nullopt when a budget is exceeded.
  std::optional<std::string> Run() {
    if (vars_.size() > kMaxVariables) return std::nullopt;
    std::vector<std::uint64_t> colors = InitialColors();
    Refine(colors);
    best_.reset();
    leaves_ = 0;
    nodes_ = 0;
    if (!Search(colors)) return std::nullopt;
    return best_;
  }

 private:
  // A term reference: var >= 0 indexes vars_, else a constant id.
  struct TermRef {
    int var = -1;
    std::int64_t constant_id = 0;
  };
  struct AtomRef {
    std::string predicate;
    std::vector<TermRef> args;
  };
  struct Occurrence {
    int atom;
    int pos;
  };

  TermRef Ref(const Term& t) {
    TermRef r;
    if (t.is_var()) {
      auto it = var_index_.find(t.var());
      VQDR_CHECK(it != var_index_.end()) << "unsafe variable in fingerprint";
      r.var = it->second;
    } else {
      r.constant_id = t.constant().id;
    }
    return r;
  }

  // Initial color of a variable: a hash of every isomorphism-invariant local
  // fact — head positions, per-occurrence (predicate, arity, position,
  // constant pattern of the atom), and disequality partners that are
  // constants. Variable-to-variable structure enters through refinement.
  std::vector<std::uint64_t> InitialColors() const {
    std::vector<std::uint64_t> colors(vars_.size(), 0);
    for (std::size_t v = 0; v < vars_.size(); ++v) {
      std::uint64_t h = 0x517cc1b727220a95ull;
      std::vector<std::uint64_t> parts;
      for (std::size_t p = 0; p < head_.size(); ++p) {
        if (head_[p].var == static_cast<int>(v)) {
          parts.push_back(Mix(1, p));
        }
      }
      for (const Occurrence& occ : occurrences_[v]) {
        const AtomRef& a = atoms_[occ.atom];
        std::uint64_t ph = Mix(2, HashString(a.predicate));
        ph = Mix(ph, a.args.size());
        ph = Mix(ph, occ.pos);
        for (std::size_t p = 0; p < a.args.size(); ++p) {
          if (a.args[p].var < 0) {
            ph = Mix(ph, Mix(p, static_cast<std::uint64_t>(
                                    a.args[p].constant_id)));
          }
        }
        parts.push_back(ph);
      }
      for (const auto& d : diseqs_) {
        const TermRef& other = d.first.var == static_cast<int>(v) ? d.second
                               : d.second.var == static_cast<int>(v)
                                   ? d.first
                                   : TermRef{-2, 0};
        if (other.var == -2) continue;
        if (other.var < 0) {
          parts.push_back(
              Mix(3, static_cast<std::uint64_t>(other.constant_id)));
        } else {
          parts.push_back(Mix(3, 0));  // Variable partner; count only here.
        }
      }
      std::sort(parts.begin(), parts.end());
      for (std::uint64_t p : parts) h = Mix(h, p);
      colors[v] = h;
    }
    return colors;
  }

  // One Weisfeiler–Leman pass to a fixpoint: each variable's color absorbs
  // the sorted multiset of its neighborhood colors until the partition (by
  // color value) stops splitting.
  void Refine(std::vector<std::uint64_t>& colors) const {
    if (vars_.empty()) return;
    std::size_t classes = CountClasses(colors);
    for (std::size_t round = 0; round < vars_.size() + 1; ++round) {
      std::vector<std::uint64_t> next(colors.size());
      for (std::size_t v = 0; v < vars_.size(); ++v) {
        std::uint64_t h = Mix(0xdabbad00, colors[v]);
        std::vector<std::uint64_t> parts;
        for (const Occurrence& occ : occurrences_[v]) {
          const AtomRef& a = atoms_[occ.atom];
          std::uint64_t ph = Mix(4, HashString(a.predicate));
          ph = Mix(ph, occ.pos);
          for (std::size_t p = 0; p < a.args.size(); ++p) {
            ph = Mix(ph, a.args[p].var >= 0
                             ? colors[a.args[p].var]
                             : Mix(5, static_cast<std::uint64_t>(
                                          a.args[p].constant_id)));
          }
          parts.push_back(ph);
        }
        for (const auto& d : diseqs_) {
          int other = -1;
          if (d.first.var == static_cast<int>(v) && d.second.var >= 0) {
            other = d.second.var;
          } else if (d.second.var == static_cast<int>(v) && d.first.var >= 0) {
            other = d.first.var;
          }
          if (other >= 0) parts.push_back(Mix(6, colors[other]));
        }
        std::sort(parts.begin(), parts.end());
        for (std::uint64_t p : parts) h = Mix(h, p);
        next[v] = h;
      }
      colors.swap(next);
      std::size_t new_classes = CountClasses(colors);
      if (new_classes == classes) break;
      classes = new_classes;
    }
  }

  static std::size_t CountClasses(const std::vector<std::uint64_t>& colors) {
    std::set<std::uint64_t> distinct(colors.begin(), colors.end());
    return distinct.size();
  }

  // Picks the individualization target: the smallest non-singleton color
  // class, ties broken by color value — a pure function of the (invariant)
  // color multiset, so isomorphic copies branch on corresponding classes.
  // Returns the class's color, or nullopt if the partition is discrete.
  static std::optional<std::uint64_t> TargetClass(
      const std::vector<std::uint64_t>& colors) {
    std::map<std::uint64_t, std::size_t> count;
    for (std::uint64_t c : colors) ++count[c];
    std::optional<std::uint64_t> best;
    std::size_t best_size = 0;
    for (const auto& [color, n] : count) {
      if (n < 2) continue;
      if (!best || n < best_size) {
        best = color;
        best_size = n;
      }
    }
    return best;
  }

  // Depth-first individualization-refinement; false = budget exceeded.
  bool Search(const std::vector<std::uint64_t>& colors) {
    if (++nodes_ > kMaxNodes) return false;
    std::optional<std::uint64_t> target = TargetClass(colors);
    if (!target) {
      if (++leaves_ > kMaxLeaves) return false;
      std::string leaf = Serialize(colors);
      if (!best_ || leaf < *best_) best_ = std::move(leaf);
      return true;
    }
    for (std::size_t v = 0; v < vars_.size(); ++v) {
      if (colors[v] != *target) continue;
      std::vector<std::uint64_t> branch = colors;
      // Same marker on every branch: corresponding vertices in isomorphic
      // copies receive identical individualized colors.
      branch[v] = Mix(0x1d91f1ca7e000001ull, branch[v]);
      Refine(branch);
      if (!Search(branch)) return false;
    }
    return true;
  }

  // Serializes the query under the discrete coloring: variables ranked by
  // color value, atoms/disequalities sorted and deduplicated.
  std::string Serialize(const std::vector<std::uint64_t>& colors) const {
    std::vector<int> order(vars_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&colors](int a, int b) {
      return colors[a] < colors[b];
    });
    std::vector<int> rank(vars_.size());
    for (std::size_t i = 0; i < order.size(); ++i) rank[order[i]] = i;

    auto term = [&rank](const TermRef& t) {
      return t.var >= 0 ? "x" + std::to_string(rank[t.var])
                        : "c" + std::to_string(t.constant_id);
    };
    std::ostringstream out;
    out << "H(";
    for (std::size_t i = 0; i < head_.size(); ++i) {
      if (i > 0) out << ",";
      out << term(head_[i]);
    }
    out << ")|";
    std::set<std::string> atom_strs;
    for (const AtomRef& a : atoms_) {
      std::string s = a.predicate + "(";
      for (std::size_t i = 0; i < a.args.size(); ++i) {
        if (i > 0) s += ",";
        s += term(a.args[i]);
      }
      s += ")";
      atom_strs.insert(std::move(s));
    }
    bool first = true;
    for (const std::string& s : atom_strs) {
      if (!first) out << ";";
      out << s;
      first = false;
    }
    out << "|";
    std::set<std::string> diseq_strs;
    for (const auto& d : diseqs_) {
      std::string a = term(d.first);
      std::string b = term(d.second);
      if (b < a) std::swap(a, b);
      diseq_strs.insert(a + "!=" + b);
    }
    first = true;
    for (const std::string& s : diseq_strs) {
      if (!first) out << ";";
      out << s;
      first = false;
    }
    return out.str();
  }

  std::vector<std::string> vars_;
  std::map<std::string, int> var_index_;
  std::vector<TermRef> head_;
  std::vector<AtomRef> atoms_;
  std::vector<std::pair<TermRef, TermRef>> diseqs_;
  std::vector<std::vector<Occurrence>> occurrences_;

  std::optional<std::string> best_;
  std::size_t leaves_ = 0;
  std::size_t nodes_ = 0;
};

}  // namespace

std::optional<std::string> CanonicalCqFingerprint(const ConjunctiveQuery& q) {
  if (q.UsesNegation()) return std::nullopt;
  bool satisfiable = true;
  ConjunctiveQuery nq = q.PropagateEqualities(&satisfiable);
  if (!satisfiable) {
    return "UNSAT|a" + std::to_string(q.head_arity());
  }
  VQDR_TRACE_SPAN("memo.fingerprint");
  Canonicalizer canon(nq);
  return canon.Run();
}

std::optional<std::string> CoreCqFingerprint(const ConjunctiveQuery& q) {
  if (!q.IsPureCq()) return std::nullopt;
  return CanonicalCqFingerprint(MinimizeCq(q));
}

std::optional<std::string> CanonicalUcqFingerprint(const UnionQuery& q) {
  std::set<std::string> parts;
  for (const ConjunctiveQuery& d : q.disjuncts()) {
    std::optional<std::string> fp = CanonicalCqFingerprint(d);
    if (!fp) return std::nullopt;
    if (fp->rfind("UNSAT|", 0) == 0) continue;  // False disjunct: drop.
    parts.insert(std::move(*fp));
  }
  if (parts.empty()) {
    return "UCQ-UNSAT|a" + std::to_string(q.head_arity());
  }
  std::ostringstream out;
  bool first = true;
  for (const std::string& p : parts) {
    if (!first) out << "+";
    out << p;
    first = false;
  }
  return out.str();
}

std::string ExactCqKey(const ConjunctiveQuery& q) { return q.ToString(); }

std::string ExactUcqKey(const UnionQuery& q) { return q.ToString(); }

std::string InstanceMemoKey(const Instance& instance) {
  std::ostringstream out;
  for (const RelationDecl& d : instance.schema().decls()) {
    out << d.name << "/" << d.arity << ",";
  }
  out << "#" << instance.ToKey();
  return out.str();
}

std::unordered_map<Value, int> WlValueColorClasses(const Instance& instance) {
  // Dense value table over the active domain.
  std::set<Value> dom_set = instance.ActiveDomain();
  std::vector<Value> dom(dom_set.begin(), dom_set.end());
  std::unordered_map<Value, int> index;
  index.reserve(dom.size());
  for (std::size_t i = 0; i < dom.size(); ++i) {
    index.emplace(dom[i], static_cast<int>(i));
  }

  // Initial color: the multiset of (relation, position) slots a value fills.
  // Hash collisions can only merge classes, which for the symmetry-breaking
  // consumer just means a weaker (never wrong) filter — the exact
  // transposition check downstream decides interchangeability.
  std::vector<std::uint64_t> colors(dom.size(), 0);
  {
    std::vector<std::vector<std::uint64_t>> occ(dom.size());
    for (const RelationDecl& d : instance.schema().decls()) {
      std::uint64_t rel_hash = HashString(d.name);
      for (TupleRef t : instance.Get(d.name).tuples()) {
        for (std::size_t pos = 0; pos < t.size(); ++pos) {
          occ[index.at(t[pos])].push_back(Mix(rel_hash, pos));
        }
      }
    }
    for (std::size_t i = 0; i < dom.size(); ++i) {
      std::sort(occ[i].begin(), occ[i].end());
      std::uint64_t h = 0x9ae16a3b2f90404full;
      for (std::uint64_t o : occ[i]) h = Mix(h, o);
      colors[i] = h;
    }
  }

  // Refine to fixpoint: each round folds in, per occurrence, the relation,
  // the position, and the colors of the co-occurring values (position-wise).
  std::size_t distinct = std::set<std::uint64_t>(colors.begin(), colors.end()).size();
  for (std::size_t round = 0; round < dom.size(); ++round) {
    std::vector<std::vector<std::uint64_t>> occ(dom.size());
    for (const RelationDecl& d : instance.schema().decls()) {
      std::uint64_t rel_hash = HashString(d.name);
      for (TupleRef t : instance.Get(d.name).tuples()) {
        std::uint64_t tuple_hash = rel_hash;
        for (const Value& v : t) {
          tuple_hash = Mix(tuple_hash, colors[index.at(v)]);
        }
        for (std::size_t pos = 0; pos < t.size(); ++pos) {
          occ[index.at(t[pos])].push_back(Mix(tuple_hash, pos));
        }
      }
    }
    std::vector<std::uint64_t> next(dom.size());
    for (std::size_t i = 0; i < dom.size(); ++i) {
      std::sort(occ[i].begin(), occ[i].end());
      std::uint64_t h = colors[i];
      for (std::uint64_t o : occ[i]) h = Mix(h, o);
      next[i] = h;
    }
    std::size_t next_distinct =
        std::set<std::uint64_t>(next.begin(), next.end()).size();
    colors.swap(next);
    if (next_distinct == distinct) break;  // partition stopped refining
    distinct = next_distinct;
  }

  // Dense class ids in color order (deterministic given the instance).
  std::map<std::uint64_t, int> class_id;
  for (std::uint64_t c : colors) {
    class_id.emplace(c, static_cast<int>(class_id.size()));
  }
  std::unordered_map<Value, int> result;
  result.reserve(dom.size());
  for (std::size_t i = 0; i < dom.size(); ++i) {
    result.emplace(dom[i], class_id.at(colors[i]));
  }
  return result;
}

}  // namespace vqdr
