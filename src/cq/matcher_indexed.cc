// Indexed-join homomorphism engine (DESIGN.md §12).
//
// Replaces the naive scan-every-tuple backtracking join with:
//   - per-(relation, argument-position) postings — row indices grouped by
//     value — built lazily once per call and shared across the whole search;
//   - bitset candidate domains: the candidates for an atom are the
//     intersection of its structural base set (constants + intra-atom
//     repeated-variable equality) with the posting lists of its bound
//     positions;
//   - forward checking: a candidate is discarded when it wipes out the
//     candidate domain of some not-yet-matched atom;
//   - conflict-directed backjumping: when a subtree fails for reasons
//     provably independent of the current level's value, the remaining
//     candidates at this level are skipped;
//   - symmetry breaking: a candidate is skipped when it is the image of an
//     already-failed candidate under an automorphism of the target instance
//     (interchangeable-value classes seeded from the WL value coloring).
//
// Every pruning rule above eliminates only subtrees that provably contain
// zero homomorphisms, and atom selection replicates the legacy rule bit for
// bit, so this engine delivers exactly the legacy engine's on_match sequence
// — same homomorphisms, same order. The legacy engine lives on as the
// differential oracle in tests/matcher_oracle.cc, which is what keeps
// verdicts and witnesses byte-identical across the MATCHER battery.

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/check.h"
#include "cq/fingerprint.h"
#include "cq/matcher_impl.h"

namespace vqdr::matcher_internal {

namespace {

// Interchange-class construction gives up beyond these sizes: symmetry
// breaking is an optimisation, so "too big to analyse" just means "run
// without it".
constexpr std::size_t kSymMaxTuples = 2048;
constexpr std::size_t kSymMaxDomain = 256;
constexpr std::size_t kSymMaxPairChecks = 20000;

// Interchange classes are only built once the search has refuted this many
// candidates (forward-checking wipe-outs plus refuted subtrees): the WL
// coloring behind them costs more than an entire small search, and symmetry
// skips only pay off on wide refutation fronts. Counting refutations rather
// than attempts keeps success-heavy enumerations from paying for classes
// they never use.
constexpr std::uint64_t kSymMinRefuted = 512;

// Relations at or below this size are filtered by scanning tuples directly
// instead of materialising posting lists — but only for the first few
// domain computations: a search that keeps coming back to the same relation
// amortises the posting build, a tiny search never pays for it.
constexpr std::size_t kSmallRelationScan = 64;
constexpr int kScansBeforeIndexing = 12;

constexpr std::size_t kNoBit = static_cast<std::size_t>(-1);

// Fixed-universe bitset over the tuple indices of one relation.
class Bits {
 public:
  void InitZero(std::size_t n) {
    n_ = n;
    w_.assign((n + 63) / 64, 0);
  }

  void InitOnes(std::size_t n) {
    n_ = n;
    w_.assign((n + 63) / 64, ~0ull);
    if ((n & 63) != 0) w_.back() = (1ull << (n & 63)) - 1;
  }

  void Set(std::size_t i) { w_[i >> 6] |= 1ull << (i & 63); }

  void Clear(std::size_t i) { w_[i >> 6] &= ~(1ull << (i & 63)); }

  bool Any() const {
    for (std::uint64_t w : w_) {
      if (w != 0) return true;
    }
    return false;
  }

  std::size_t Count() const {
    std::size_t c = 0;
    for (std::uint64_t w : w_) c += static_cast<std::size_t>(__builtin_popcountll(w));
    return c;
  }

  void CopyFrom(const Bits& o) {
    n_ = o.n_;
    w_ = o.w_;  // vector assign reuses capacity across levels
  }

  // this &= the set of the ascending indices [first, last); returns whether
  // any bit survives.
  bool AndWithSorted(const std::uint32_t* first, const std::uint32_t* last) {
    std::uint64_t any = 0;
    for (std::size_t wi = 0; wi < w_.size(); ++wi) {
      const std::size_t word_end = (wi + 1) << 6;
      std::uint64_t mask = 0;
      for (; first != last && *first < word_end; ++first) {
        mask |= 1ull << (*first & 63);
      }
      w_[wi] &= mask;
      any |= w_[wi];
    }
    return any != 0;
  }

  // First set bit at index >= from, or kNoBit.
  std::size_t FindNext(std::size_t from) const {
    if (from >= n_) return kNoBit;
    std::size_t wi = from >> 6;
    std::uint64_t w = w_[wi] & (~0ull << (from & 63));
    while (true) {
      if (w != 0) {
        return (wi << 6) + static_cast<std::size_t>(__builtin_ctzll(w));
      }
      if (++wi == w_.size()) return kNoBit;
      w = w_[wi];
    }
  }

 private:
  std::size_t n_ = 0;
  std::vector<std::uint64_t> w_;
};

// The postings of one argument position of a relation: its row indices
// grouped by the value at that position, groups in ascending value order
// and rows ascending within a group. Group g holds the rows of value
// keys[g], rows[starts[g]] up to rows[starts[g + 1]].
struct Postings {
  bool built = false;
  std::vector<std::int64_t> keys;
  std::vector<std::uint32_t> starts;
  std::vector<std::uint32_t> rows;

  void Build(const Relation& rel, std::size_t pos) {
    built = true;
    const Rows tuples = rel.tuples();
    const std::size_t n = tuples.size();
    rows.resize(n);
    auto open_group = [&](std::int64_t key, std::size_t at) {
      if (at == 0 || keys.back() != key) {
        keys.push_back(key);
        starts.push_back(static_cast<std::uint32_t>(at));
      }
    };
    if (pos == 0) {
      // Rows are sorted, so each first-position value's rows are already
      // one ascending run.
      for (std::size_t i = 0; i < n; ++i) {
        rows[i] = static_cast<std::uint32_t>(i);
        open_group(tuples[i][0].id, i);
      }
    } else {
      std::vector<std::pair<std::int64_t, std::uint32_t>> by_value(n);
      for (std::size_t i = 0; i < n; ++i) {
        by_value[i] = {tuples[i][pos].id, static_cast<std::uint32_t>(i)};
      }
      std::sort(by_value.begin(), by_value.end());
      for (std::size_t i = 0; i < n; ++i) {
        rows[i] = by_value[i].second;
        open_group(by_value[i].first, i);
      }
    }
    starts.push_back(static_cast<std::uint32_t>(n));
  }

  // Intersects `out` with the rows of `value`; returns whether any survive.
  bool AndInto(std::int64_t value, Bits& out) const {
    auto it = std::lower_bound(keys.begin(), keys.end(), value);
    if (it == keys.end() || *it != value) return false;
    const std::size_t g = static_cast<std::size_t>(it - keys.begin());
    return out.AndWithSorted(rows.data() + starts[g],
                             rows.data() + starts[g + 1]);
  }
};

using Mask = std::uint64_t;

enum class Res { kStopped, kMatched, kFailed };

class Engine {
 public:
  Engine(const std::vector<Atom>& atoms, const Instance& db,
         const Binding& initial,
         const std::function<bool(const Match&)>& on_match,
         MatchStats& stats, guard::Budget* budget)
      : atoms_(atoms),
        db_(db),
        on_match_(on_match),
        stats_(stats),
        budget_(budget),
        n_(static_cast<int>(atoms.size())),
        cbj_(atoms.size() <= 64) {
    BuildRelations();
    BuildVariables(initial);
    BuildAtomInfos();
    for (const auto& [var, value] : initial) {
      (void)var;
      ImageAdd(value.id);
    }
    matched_.assign(n_, 0);
    levels_.resize(n_);
  }

  bool Run() {
    if (!guard::IsComplete(guard::Check(budget_))) return false;
    if (impossible_) return true;  // completed with zero matches
    return Node(0) != Res::kStopped;
  }

 private:
  struct RelInfo {
    const Relation* rel = nullptr;
    std::size_t size = 0;
    // One entry per argument position, each built on first use.
    std::vector<Postings> posts;
    bool posts_built = false;  // some position has been built
    int scans_left = kScansBeforeIndexing;
  };

  struct AtomInfo {
    int rel_id = 0;
    // Per argument position: variable id, or -1 for a constant.
    std::vector<int> slot_var;
    // Tuples passing this atom's binding-independent constraints
    // (constants match, repeated variables see equal values). When the atom
    // has neither, `base_full` marks the whole relation as passing and
    // `base` stays empty.
    Bits base;
    bool base_full = false;
  };

  struct Level {
    Bits cand;
    Bits fc_scratch;
    // Signatures of candidates whose subtrees were exhaustively refuted at
    // this node — symmetric candidates fail identically and are skipped.
    std::set<std::vector<std::int64_t>> failed_sigs;
    std::vector<int> newly_bound;
  };

  static Mask LevelBit(int level) {
    return level < 0 ? 0 : (Mask{1} << level);
  }

  // The symbol tables are flat vectors with linear lookup: queries have a
  // handful of relations and at most a few dozen variables, where a scan
  // beats hashing and — more importantly for the tiny-search workloads the
  // chase and finite search generate — costs zero allocations per call.
  // Variables are looked up through match_.SlotOf, over var_names_.
  int RelIdOf(const std::string& predicate) const {
    for (std::size_t i = 0; i < rel_names_.size(); ++i) {
      if (rel_names_[i] == predicate) return static_cast<int>(i);
    }
    return -1;
  }

  void BuildRelations() {
    for (const Atom& a : atoms_) {
      if (RelIdOf(a.predicate) >= 0) continue;
      rel_names_.push_back(a.predicate);
      RelInfo r;
      r.rel = &db_.Get(a.predicate);
      r.size = r.rel->size();
      rels_.push_back(std::move(r));
    }
  }

  // Slots: the atoms' variables in order of first occurrence, then the
  // variables only `initial` binds (they reach the callback, never an atom).
  void BuildVariables(const Binding& initial) {
    for (const Atom& a : atoms_) {
      for (const Term& t : a.args) {
        if (t.is_var()) {
          if (match_.SlotOf(t.var()) < 0) var_names_.push_back(t.var());
        } else if (std::find(query_consts_.begin(), query_consts_.end(),
                             t.constant().id) == query_consts_.end()) {
          query_consts_.push_back(t.constant().id);
        }
      }
    }
    for (const auto& entry : initial) {
      if (match_.SlotOf(entry.first) < 0) var_names_.push_back(entry.first);
    }
    val_.assign(var_names_.size(), Value{});
    bound_.assign(var_names_.size(), 0);
    level_of_.assign(var_names_.size(), -1);
    for (const auto& [name, value] : initial) {
      int v = match_.SlotOf(name);
      val_[v] = value;
      bound_[v] = 1;
    }
  }

  void BuildAtomInfos() {
    atom_info_.resize(n_);
    for (int ai = 0; ai < n_; ++ai) {
      const Atom& a = atoms_[ai];
      AtomInfo& info = atom_info_[ai];
      info.rel_id = RelIdOf(a.predicate);
      info.slot_var.reserve(a.args.size());
      bool constrained = false;
      for (std::size_t s = 0; s < a.args.size(); ++s) {
        const Term& t = a.args[s];
        info.slot_var.push_back(t.is_var() ? match_.SlotOf(t.var()) : -1);
        if (info.slot_var[s] < 0) constrained = true;
        for (std::size_t s2 = 0; !constrained && s2 < s; ++s2) {
          if (info.slot_var[s2] == info.slot_var[s]) constrained = true;
        }
      }
      const RelInfo& r = rels_[info.rel_id];
      if (!constrained) {
        // No constants, no repeated variables: every tuple passes, so the
        // base set is the whole relation — represented implicitly, which
        // keeps construction O(arity) instead of O(tuples).
        info.base_full = true;
        if (r.size == 0) impossible_ = true;
        continue;
      }
      info.base.InitZero(r.size);
      const Rows tuples = r.rel->tuples();
      bool any = false;
      for (std::size_t idx = 0; idx < tuples.size(); ++idx) {
        const TupleRef t = tuples[idx];
        bool ok = true;
        for (std::size_t s = 0; ok && s < a.args.size(); ++s) {
          if (info.slot_var[s] < 0) {
            ok = a.args[s].constant() == t[s];
            continue;
          }
          // Repeated variable: all occurrences must see the same value.
          for (std::size_t s2 = 0; s2 < s; ++s2) {
            if (info.slot_var[s2] == info.slot_var[s] && t[s2] != t[s]) {
              ok = false;
              break;
            }
          }
        }
        if (ok) {
          info.base.Set(idx);
          any = true;
        }
      }
      if (!any) impossible_ = true;
    }
  }

  // The postings of position `pos` of `r`, built on first use. The first
  // build for a relation counts as its index build.
  const Postings& PostsAt(RelInfo& r, std::size_t pos) {
    if (!r.posts_built) {
      r.posts_built = true;
      ++stats_.index_builds;
      r.posts.resize(static_cast<std::size_t>(r.rel->arity()));
    }
    Postings& p = r.posts[pos];
    if (!p.built) p.Build(*r.rel, pos);
    return p;
  }

  // Candidate domain of atom `ai` under the current partial binding:
  // base ∩ posting lists of every bound argument position. Accumulates the
  // levels consulted into *cs. Returns false if the domain is empty.
  bool ComputeDomain(int ai, Bits& out, Mask* cs) {
    const AtomInfo& info = atom_info_[ai];
    RelInfo& r = rels_[info.rel_id];
    if (info.base_full) {
      out.InitOnes(r.size);
    } else {
      out.CopyFrom(info.base);
    }
    if (!r.posts_built && r.size <= kSmallRelationScan && r.scans_left > 0) {
      --r.scans_left;
      // Tiny relation: test the bound slots of each surviving tuple
      // directly — cheaper than building posting lists would be.
      bool any_bound = false;
      for (std::size_t s = 0; s < info.slot_var.size(); ++s) {
        int v = info.slot_var[s];
        if (v < 0 || !bound_[v]) continue;
        *cs |= LevelBit(level_of_[v]);
        any_bound = true;
      }
      if (!any_bound) return out.Any();
      ++stats_.index_lookups;
      const Rows tuples = r.rel->tuples();
      bool nonempty = false;
      for (std::size_t idx = out.FindNext(0); idx != kNoBit;
           idx = out.FindNext(idx + 1)) {
        const TupleRef t = tuples[idx];
        bool ok = true;
        for (std::size_t s = 0; ok && s < info.slot_var.size(); ++s) {
          int v = info.slot_var[s];
          if (v >= 0 && bound_[v] && t[s] != val_[v]) ok = false;
        }
        if (ok) {
          nonempty = true;
        } else {
          out.Clear(idx);
        }
      }
      return nonempty;
    }
    bool nonempty = true;
    for (std::size_t s = 0; s < info.slot_var.size(); ++s) {
      int v = info.slot_var[s];
      if (v < 0 || !bound_[v]) continue;
      *cs |= LevelBit(level_of_[v]);
      if (!nonempty) continue;
      const Postings& posts = PostsAt(r, s);
      ++stats_.index_lookups;
      if (!posts.AndInto(val_[v].id, out)) nonempty = false;
    }
    return nonempty;
  }

  // ---------- symmetry breaking ----------

  // True when the interchange classes are built and non-trivial. Builds them
  // on first use; on failure (too big, no symmetry) disables the feature for
  // the rest of the call.
  bool SymReady() {
    if (sym_state_ == 0) {
      if (refuted_ < kSymMinRefuted) return false;
      BuildSymClasses();
    }
    return sym_state_ == 1;
  }

  // Counts one refuted candidate of atom `ai` and, once symmetry breaking is
  // live, remembers its signature so symmetric siblings are skipped.
  void NoteRefuted(int ai, TupleRef tuple, Level& lv) {
    ++refuted_;
    if (SymReady()) {
      ComputeSig(ai, tuple, sig_scratch_);
      lv.failed_sigs.insert(sig_scratch_);
    }
  }

  // Exact check: is the transposition (u v) an automorphism of db? A
  // transposition is an involution, so mapping every touched tuple back into
  // its relation is both necessary and sufficient.
  bool TranspositionIsAutomorphism(Value u, Value v) {
    for (const RelationDecl& decl : db_.schema().decls()) {
      const Relation& rel = db_.Get(decl.name);
      for (TupleRef t : rel.tuples()) {
        bool touched = false;
        for (Value x : t) {
          if (x == u || x == v) {
            touched = true;
            break;
          }
        }
        if (!touched) continue;
        mapped_.assign(t.begin(), t.end());
        for (Value& x : mapped_) x = x == u ? v : (x == v ? u : x);
        if (!rel.Contains(mapped_)) return false;
      }
    }
    return true;
  }

  // Partitions (part of) the active domain into interchange classes: sets of
  // values any permutation of which is an automorphism of db. WL colors are
  // a necessary condition for interchangeability and serve as the cheap
  // filter; membership is then verified exactly against a class
  // representative. Star transpositions (rep x) generate the full symmetric
  // group on the class, and automorphisms compose, so every permutation
  // supported on a class is a genuine automorphism.
  void BuildSymClasses() {
    sym_state_ = 2;  // pessimistic until proven useful
    if (db_.TupleCount() > kSymMaxTuples) return;
    std::set<Value> dom = db_.ActiveDomain();
    if (dom.size() < 2 || dom.size() > kSymMaxDomain) return;
    std::unordered_map<Value, int> wl = WlValueColorClasses(db_);
    std::map<int, std::vector<Value>> groups;
    for (Value v : dom) groups[wl[v]].push_back(v);
    std::size_t checks = 0;
    int next_class = 0;
    for (const auto& [color, vals] : groups) {
      (void)color;
      if (vals.size() < 2) continue;
      std::vector<std::vector<Value>> subs;
      for (Value v : vals) {
        bool placed = false;
        for (auto& sub : subs) {
          if (++checks > kSymMaxPairChecks) return;
          if (TranspositionIsAutomorphism(sub.front(), v)) {
            sub.push_back(v);
            placed = true;
            break;
          }
        }
        if (!placed) subs.push_back({v});
      }
      for (const auto& sub : subs) {
        if (sub.size() < 2) continue;
        for (Value v : sub) class_of_[v.id] = next_class;
        ++next_class;
      }
    }
    if (!class_of_.empty()) sym_state_ = 1;
  }

  // Multiset of values in the current binding's image, kept as a flat
  // vector (bindings are small; linear scan, zero allocation steady-state).
  void ImageAdd(std::int64_t id) {
    for (auto& [value, count] : image_) {
      if (value == id) {
        ++count;
        return;
      }
    }
    image_.emplace_back(id, 1);
  }

  void ImageRemove(std::int64_t id) {
    for (std::size_t i = 0; i < image_.size(); ++i) {
      if (image_[i].first != id) continue;
      if (--image_[i].second == 0) {
        image_[i] = image_.back();
        image_.pop_back();
      }
      return;
    }
  }

  bool ImageHas(std::int64_t id) const {
    for (const auto& [value, count] : image_) {
      if (value == id) return count > 0;
    }
    return false;
  }

  // A value is pinned when any automorphism used for candidate exchange must
  // fix it: it is in the image of the current binding or is a query constant.
  bool Pinned(Value v) const {
    if (std::find(query_consts_.begin(), query_consts_.end(), v.id) !=
        query_consts_.end()) {
      return true;
    }
    return ImageHas(v.id);
  }

  // Signature of candidate tuple `t` for atom `ai` at the current node,
  // BEFORE its free slots are bound. Two candidates with equal signatures
  // are images of each other under an automorphism fixing every pinned
  // value, so their subtrees succeed or fail together.
  void ComputeSig(int ai, TupleRef t, std::vector<std::int64_t>& out) const {
    const AtomInfo& info = atom_info_[ai];
    out.clear();
    for (std::size_t s = 0; s < t.size(); ++s) {
      int v = info.slot_var[s];
      Value x = t[s];
      bool exact = v < 0 || bound_[v] || Pinned(x);
      auto cls = exact ? class_of_.end() : class_of_.find(x.id);
      if (exact || cls == class_of_.end()) {
        out.push_back(0);
        out.push_back(x.id);
        continue;
      }
      // First occurrence of this value among the earlier free unpinned
      // slots: the repetition pattern must match, not just the classes.
      std::size_t first = s;
      for (std::size_t s2 = 0; s2 < s; ++s2) {
        int v2 = info.slot_var[s2];
        if (v2 >= 0 && !bound_[v2] && t[s2] == x && !Pinned(t[s2])) {
          first = s2;
          break;
        }
      }
      out.push_back(1);
      out.push_back(cls->second);
      out.push_back(static_cast<std::int64_t>(first));
    }
  }

  // ---------- search ----------

  void BindCandidate(int ai, TupleRef t, int depth, Level& lv) {
    const AtomInfo& info = atom_info_[ai];
    lv.newly_bound.clear();
    for (std::size_t s = 0; s < t.size(); ++s) {
      int v = info.slot_var[s];
      if (v < 0 || bound_[v]) continue;
      bound_[v] = 1;
      val_[v] = t[s];
      level_of_[v] = depth;
      lv.newly_bound.push_back(v);
      ImageAdd(t[s].id);
    }
  }

  void UnbindCandidate(Level& lv) {
    for (int v : lv.newly_bound) {
      bound_[v] = 0;
      level_of_[v] = -1;
      ImageRemove(val_[v].id);
    }
    lv.newly_bound.clear();
  }

  // Forward checking: after binding a candidate at `depth`, every
  // not-yet-matched atom touching a newly bound variable must retain a
  // non-empty candidate domain. On a wipe-out, the levels of the failing
  // atom's bound variables join the conflict set.
  bool ForwardCheck(int depth, Level& lv, Mask* cs) {
    for (int bi = 0; bi < n_; ++bi) {
      if (matched_[bi]) continue;
      const AtomInfo& info = atom_info_[bi];
      bool affected = false;
      for (int v : info.slot_var) {
        if (v >= 0 && bound_[v] && level_of_[v] == depth) {
          affected = true;
          break;
        }
      }
      if (!affected) continue;
      Mask consulted = 0;
      if (!ComputeDomain(bi, lv.fc_scratch, &consulted)) {
        *cs |= consulted & ~LevelBit(depth);
        ++stats_.fc_prunes;
        return false;
      }
    }
    return true;
  }

  Res Node(int depth) {
    // One budget step per backtracking node, mirroring the legacy engine's
    // polling density.
    if (!guard::IsComplete(guard::Check(budget_))) return Res::kStopped;
    if (depth == n_) {
      ++stats_.matches;
      return on_match_(match_) ? Res::kMatched : Res::kStopped;
    }

    // Atom selection replicates the legacy rule exactly — maximal bound
    // positions, then smaller relation, then first in ascending atom order —
    // and is value-blind (it depends only on WHICH variables are bound),
    // which is what makes the backjumping argument sound.
    int best = -1;
    int best_bound = -1;
    std::size_t best_size = 0;
    for (int ai = 0; ai < n_; ++ai) {
      if (matched_[ai]) continue;
      const AtomInfo& info = atom_info_[ai];
      int bound = 0;
      for (int v : info.slot_var) {
        if (v < 0 || bound_[v]) ++bound;
      }
      std::size_t size = rels_[info.rel_id].size;
      if (bound > best_bound || (bound == best_bound && size < best_size)) {
        best_bound = bound;
        best_size = size;
        best = ai;
      }
    }

    Level& lv = levels_[depth];
    lv.failed_sigs.clear();
    Mask cs = 0;
    bool nonempty = ComputeDomain(best, lv.cand, &cs);
    const RelInfo& r = rels_[atom_info_[best].rel_id];
    matched_[best] = 1;

    bool matched_below = false;
    bool stopped = false;
    std::uint64_t attempts = 0;
    if (nonempty) {
      stats_.index_candidates += lv.cand.Count();
      for (std::size_t idx = lv.cand.FindNext(0); idx != kNoBit;
           idx = lv.cand.FindNext(idx + 1)) {
        ++attempts;
        const TupleRef tuple = r.rel->tuples()[idx];
        if (!lv.failed_sigs.empty()) {
          ComputeSig(best, tuple, sig_scratch_);
          if (lv.failed_sigs.count(sig_scratch_) != 0) {
            ++stats_.sym_skips;
            // The skip leans on the whole binding image; give up on
            // attributing this node's failure to specific levels.
            cs = ~Mask{0};
            continue;
          }
        }
        BindCandidate(best, tuple, depth, lv);
        if (!ForwardCheck(depth, lv, &cs)) {
          UnbindCandidate(lv);
          NoteRefuted(best, tuple, lv);
          continue;
        }
        Res child = Node(depth + 1);
        UnbindCandidate(lv);
        if (child == Res::kStopped) {
          stopped = true;
          break;
        }
        if (child == Res::kMatched) {
          matched_below = true;
          continue;
        }
        // Child subtree exhaustively refuted (no budget stop): fold its
        // conflict set into ours and remember the candidate's shape.
        cs |= child_cs_ & ~LevelBit(depth);
        NoteRefuted(best, tuple, lv);
        if (cbj_ && (child_cs_ & LevelBit(depth)) == 0) {
          // The failure did not consult this level's value: every remaining
          // candidate here meets the identical refutation.
          ++stats_.bj_jumps;
          break;
        }
      }
    }
    stats_.attempts += attempts;
    matched_[best] = 0;
    if (stopped) return Res::kStopped;
    if (matched_below) return Res::kMatched;
    child_cs_ = cbj_ ? cs : ~Mask{0};
    return Res::kFailed;
  }

  const std::vector<Atom>& atoms_;
  const Instance& db_;
  const std::function<bool(const Match&)>& on_match_;
  MatchStats& stats_;
  guard::Budget* budget_;
  const int n_;
  // Backjumping tracks conflict sets in a 64-bit mask, one bit per level.
  const bool cbj_;

  std::vector<std::string> rel_names_;
  std::vector<RelInfo> rels_;
  std::vector<AtomInfo> atom_info_;

  std::vector<std::string> var_names_;
  std::vector<Value> val_;
  std::vector<char> bound_;
  std::vector<int> level_of_;
  // The callback's view of var_names_ and val_.
  const Match match_{var_names_, val_};

  std::vector<std::pair<std::int64_t, int>> image_;
  std::vector<std::int64_t> query_consts_;

  std::vector<char> matched_;
  std::vector<Level> levels_;
  std::vector<std::int64_t> sig_scratch_;
  Tuple mapped_;  // TranspositionIsAutomorphism's image of a row

  // 0 = not yet built, 1 = built and non-trivial, 2 = unavailable.
  int sym_state_ = 0;
  std::uint64_t refuted_ = 0;
  std::unordered_map<std::int64_t, int> class_of_;

  Mask child_cs_ = 0;
  bool impossible_ = false;
};

}  // namespace

bool IndexedMatch(const std::vector<Atom>& atoms, const Instance& db,
                  const Binding& initial,
                  const std::function<bool(const Match&)>& on_match,
                  MatchStats& stats, guard::Budget* budget) {
  Engine engine(atoms, db, initial, on_match, stats, budget);
  return engine.Run();
}

}  // namespace vqdr::matcher_internal
