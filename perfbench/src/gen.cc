#include "gen.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>

#include "core/rewriting.h"
#include "cq/parser.h"
#include "views/view_set.h"

namespace perfbench {

std::uint64_t Rng::Next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int Rng::Uniform(int lo, int hi) {
  return lo + static_cast<int>(Next() % static_cast<std::uint64_t>(hi - lo + 1));
}

bool Rng::Chance(double p) {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53 < p;
}

std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t stream) {
  Rng r(seed * 0x100000001b3ull + stream);
  r.Next();
  return r.Next();
}

std::uint64_t Fnv(std::uint64_t h, const std::string& text) {
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  h ^= 0xff;
  h *= 1099511628211ull;
  return h;
}

const char* FamilyName(Family f) {
  switch (f) {
    case Family::kPathChain: return "path_chain";
    case Family::kPathStar: return "path_star";
    case Family::kPathCycle: return "path_cycle";
    case Family::kRandom: return "random";
    case Family::kProjectSelect: return "project_select";
  }
  return "?";
}

namespace {

std::string Var(const char* prefix, int i) {
  std::string out(prefix);
  out += std::to_string(i);
  return out;
}

std::string AtomText(const std::string& rel,
                     const std::vector<std::string>& args) {
  std::string out = rel + "(";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out += ", ";
    out += args[i];
  }
  return out + ")";
}

std::string RuleText(const std::string& head,
                     const std::vector<std::string>& head_args,
                     const std::vector<std::string>& body) {
  std::string out = AtomText(head, head_args) + " :- ";
  for (std::size_t i = 0; i < body.size(); ++i) {
    if (i > 0) out += ", ";
    out += body[i];
  }
  return out;
}

// A view as the generator sees it: name, arity and rule text.
struct ViewText {
  std::string name;
  int arity = 0;
  std::string rule;
};

// R: `atoms` view atoms over variables a0.., with a random head drawn from
// the body variables (so R, and hence R∘V, is safe).
std::string RandomRewriting(Rng& rng, const std::vector<ViewText>& views,
                            int atoms, int max_head) {
  int pool = atoms + 1;
  std::vector<std::string> body;
  std::vector<int> used;  // variable indices in first-use order
  std::set<std::string> seen_atoms;
  for (int i = 0; i < atoms; ++i) {
    const ViewText& v =
        views[rng.Uniform(0, static_cast<int>(views.size()) - 1)];
    std::vector<int> args;
    for (int p = 0; p < v.arity; ++p) {
      // The first argument reuses a variable already in the body, so R is
      // mostly connected.
      args.push_back(p == 0 && !used.empty()
                         ? used[rng.Uniform(0, static_cast<int>(used.size()) - 1)]
                         : rng.Uniform(0, pool - 1));
    }
    std::vector<std::string> names;
    for (int a : args) names.push_back(Var("a", a));
    std::string text = AtomText(v.name, names);
    if (!seen_atoms.insert(text).second) continue;
    for (int a : args) {
      if (std::find(used.begin(), used.end(), a) == used.end()) {
        used.push_back(a);
      }
    }
    body.push_back(text);
  }
  std::vector<std::string> head;
  int h = std::min<int>(rng.Uniform(0, max_head), static_cast<int>(used.size()));
  for (int i = 0; i < h; ++i) {
    int k = rng.Uniform(i, static_cast<int>(used.size()) - 1);
    std::swap(used[i], used[k]);
    head.push_back(Var("a", used[i]));
  }
  return RuleText("R", head, body);
}

std::vector<ViewText> PathViews(Rng& rng) {
  static const std::vector<std::vector<int>> kLengthSets = {
      {1, 2}, {2, 3}, {1, 3}, {1, 2, 3}, {2, 4}, {1, 4}};
  const std::vector<int>& lengths =
      kLengthSets[rng.Uniform(0, static_cast<int>(kLengthSets.size()) - 1)];
  std::vector<ViewText> views;
  for (int len : lengths) {
    std::vector<std::string> body;
    for (int i = 0; i < len; ++i) {
      std::string from = i == 0 ? "x" : Var("z", i);
      std::string to = i == len - 1 ? "y" : Var("z", i + 1);
      body.push_back(AtomText("E", {from, to}));
    }
    std::string name = Var("P", len);
    views.push_back({name, 2, RuleText(name, {"x", "y"}, body)});
  }
  return views;
}

// R shaped as a chain, a star or a Boolean cycle over binary views.
std::string ShapedRewriting(Rng& rng, const std::vector<ViewText>& views,
                            Family shape, int atoms) {
  auto pick = [&]() -> const std::string& {
    return views[rng.Uniform(0, static_cast<int>(views.size()) - 1)].name;
  };
  std::vector<std::string> body;
  std::vector<std::string> head;
  switch (shape) {
    case Family::kPathChain:
      for (int i = 0; i < atoms; ++i) {
        body.push_back(AtomText(pick(), {Var("a", i), Var("a", i + 1)}));
      }
      head = {"a0", Var("a", atoms)};
      break;
    case Family::kPathStar:
      for (int i = 0; i < atoms; ++i) {
        std::string leaf = Var("a", i + 1);
        body.push_back(rng.Chance(0.7) ? AtomText(pick(), {"a0", leaf})
                                       : AtomText(pick(), {leaf, "a0"}));
      }
      head = {"a0"};
      break;
    default:  // kPathCycle
      for (int i = 0; i < atoms; ++i) {
        body.push_back(
            AtomText(pick(), {Var("a", i), Var("a", (i + 1) % atoms)}));
      }
      break;
  }
  return RuleText("R", head, body);
}

std::vector<ViewText> RandomViews(Rng& rng) {
  static const std::vector<std::pair<std::string, int>> kRels = {
      {"A", 2}, {"B", 2}, {"C", 3}};
  int count = rng.Uniform(2, 4);
  std::vector<ViewText> views;
  for (int v = 0; v < count; ++v) {
    int atoms = rng.Uniform(1, 3);
    int pool = atoms + 1;
    std::vector<std::string> body;
    std::set<std::string> used;
    for (int i = 0; i < atoms; ++i) {
      const auto& [rel, arity] = kRels[rng.Uniform(0, 2)];
      std::vector<std::string> args;
      for (int p = 0; p < arity; ++p) {
        args.push_back(Var("x", rng.Uniform(0, pool - 1)));
      }
      for (const std::string& a : args) used.insert(a);
      body.push_back(AtomText(rel, args));
    }
    std::vector<std::string> candidates(used.begin(), used.end());
    int h = rng.Uniform(1, std::min<int>(3, static_cast<int>(candidates.size())));
    std::vector<std::string> head;
    for (int i = 0; i < h; ++i) {
      int k = rng.Uniform(i, static_cast<int>(candidates.size()) - 1);
      std::swap(candidates[i], candidates[k]);
      head.push_back(candidates[i]);
    }
    std::string name = Var("V", v + 1);
    views.push_back({name, h, RuleText(name, head, body)});
  }
  return views;
}

// Single-atom views over T/4: each position is kept (a head variable),
// projected out, selected by a constant, or selected equal to an earlier
// position.
std::vector<ViewText> ProjectSelectViews(Rng& rng) {
  int count = rng.Uniform(2, 4);
  std::vector<ViewText> views;
  for (int v = 0; v < count; ++v) {
    std::vector<std::string> args;
    std::vector<std::string> head;
    for (int p = 0; p < 4; ++p) {
      int roll = rng.Uniform(0, 9);
      if (roll < 5 || (p == 3 && head.empty())) {
        args.push_back(Var("x", p));
        head.push_back(Var("x", p));
      } else if (roll < 7) {
        args.push_back(Var("y", p));
      } else if (roll < 9 || p == 0) {
        args.push_back(Var("'k", rng.Uniform(0, 1)) + "'");
      } else {
        args.push_back(args[rng.Uniform(0, p - 1)]);
      }
    }
    // A repeat of a constant position is still a constant; a repeat of a
    // variable is an equality selection. Both are pure single-atom CQs.
    std::string name = Var("S", v + 1);
    views.push_back({name, static_cast<int>(head.size()),
                     RuleText(name, head, {AtomText("T", args)})});
  }
  return views;
}

int DistinctAtoms(const vqdr::ConjunctiveQuery& q) {
  std::set<std::string> seen;
  for (const vqdr::Atom& a : q.atoms()) {
    std::string key = a.predicate;
    for (const vqdr::Term& t : a.args) {
      key += '|';
      key += t.is_var() ? t.var() : Var("#", static_cast<int>(t.constant().id));
    }
    seen.insert(key);
  }
  return static_cast<int>(seen.size());
}

}  // namespace

DecideCase DrawDecideCase(Rng& rng, Family family, bool determined, int size,
                          const std::string& tag) {
  std::vector<ViewText> views;
  std::string r;
  switch (family) {
    case Family::kPathChain:
    case Family::kPathStar:
    case Family::kPathCycle:
      views = PathViews(rng);
      r = ShapedRewriting(rng, views, family,
                          family == Family::kPathCycle ? std::max(2, size)
                                                       : size);
      break;
    case Family::kRandom:
      views = RandomViews(rng);
      r = RandomRewriting(rng, views, size, 2);
      break;
    case Family::kProjectSelect:
      views = ProjectSelectViews(rng);
      r = RandomRewriting(rng, views, size, 2);
      break;
  }

  vqdr::NamePool pool;
  vqdr::ViewSet view_set;
  DecideCase out;
  for (const ViewText& v : views) {
    view_set.Add(v.name,
                 vqdr::Query::FromCq(vqdr::ParseCq(v.rule, pool).value()));
    out.views.push_back(v.rule);
  }
  vqdr::ConjunctiveQuery expansion =
      vqdr::ExpandRewriting(vqdr::ParseCq(r, pool).value(), view_set);
  // ExpandRewriting suffixes copies with '@'; rename to plain identifiers so
  // the rule text parses back.
  std::map<std::string, std::string> names;
  vqdr::ConjunctiveQuery q =
      expansion.RenameVariables([&names](const std::string& v) {
        auto it = names.find(v);
        if (it != names.end()) return it->second;
        std::string fresh = Var("v", static_cast<int>(names.size()));
        names.emplace(v, fresh);
        return fresh;
      });
  q.set_head_name("Q" + tag);
  if (!determined) {
    // Hide one join: a relation no view mentions, on a variable of Q.
    std::vector<std::string> vars = q.AllVariables();
    std::string anchor = vars.empty() ? "v0" : vars[rng.Uniform(0, static_cast<int>(vars.size()) - 1)];
    q.AddAtom(vqdr::Atom("H" + tag, {vqdr::Term::Var(anchor),
                                     vqdr::Term::Var("h0")}));
  }
  out.query = vqdr::CqToString(q, pool);
  out.rewriting = r;
  out.determined = determined;
  out.query_atoms = DistinctAtoms(q);
  return out;
}

ContainmentCase DrawContainmentCase(Rng& rng, bool contained,
                                    const std::string& unique) {
  static const std::vector<std::pair<std::string, int>> kRels = {
      {"A", 2}, {"B", 2}, {"C", 3}};
  // q2: a random connected CQ with one atom carrying the unique constant.
  int atoms = rng.Uniform(3, 6);
  int pool = atoms + 1;
  std::vector<std::vector<std::string>> body;
  std::vector<std::string> rels;
  std::set<std::string> used = {"w0"};
  for (int i = 0; i < atoms; ++i) {
    const auto& [rel, arity] = kRels[rng.Uniform(0, 2)];
    std::vector<std::string> args;
    for (int p = 0; p < arity; ++p) {
      if (p == 0) {
        args.push_back(*std::next(used.begin(),
                                  rng.Uniform(0, static_cast<int>(used.size()) - 1)));
      } else {
        args.push_back(Var("w", rng.Uniform(0, pool - 1)));
      }
    }
    for (const std::string& a : args) used.insert(a);
    body.push_back(args);
    rels.push_back(rel);
  }
  std::string marker = "'u" + unique + "'";
  auto render = [&](const std::vector<std::vector<std::string>>& b,
                    const std::vector<std::string>& rs,
                    const std::map<std::string, std::string>& subst,
                    std::vector<std::string> extra) {
    std::vector<std::string> atoms_text;
    for (std::size_t i = 0; i < b.size(); ++i) {
      std::vector<std::string> args;
      for (const std::string& a : b[i]) {
        auto it = subst.find(a);
        args.push_back(it == subst.end() ? a : it->second);
      }
      atoms_text.push_back(AtomText(rs[i], args));
    }
    for (std::string& e : extra) atoms_text.push_back(std::move(e));
    return RuleText("Q", {"w0"}, atoms_text);
  };
  std::string mark_atom = AtomText("M", {"w0", marker});

  // q1: identify a random pair of variables (never renaming the head) and
  // add one or two atoms.
  std::map<std::string, std::string> subst;
  std::vector<std::string> vars(used.begin(), used.end());
  int i = rng.Uniform(0, static_cast<int>(vars.size()) - 1);
  int j = rng.Uniform(0, static_cast<int>(vars.size()) - 1);
  if (i != j && vars[i] != "w0") subst[vars[i]] = vars[j];
  std::vector<std::string> extra = {mark_atom};
  int added = rng.Uniform(1, 2);
  for (int k = 0; k < added; ++k) {
    std::string a = vars[rng.Uniform(0, static_cast<int>(vars.size()) - 1)];
    auto it = subst.find(a);
    extra.push_back(AtomText("A", {it == subst.end() ? a : it->second,
                                   Var("n", k)}));
  }
  ContainmentCase out;
  out.q1 = render(body, rels, subst, extra);
  std::vector<std::string> q2_extra = {mark_atom};
  if (!contained) q2_extra.push_back(AtomText("G", {"w0", "g0"}));
  out.q2 = render(body, rels, {}, q2_extra);
  out.contained = contained;
  return out;
}

std::vector<Edge> RandomGraph(Rng& rng, int n, int edges) {
  std::set<Edge> seen;
  std::vector<Edge> out;
  int guard = edges * 20;
  while (static_cast<int>(out.size()) < edges && guard-- > 0) {
    int a = rng.Uniform(1, n);
    int b = rng.Uniform(1, n);
    if (a == b || !seen.insert({a, b}).second) continue;
    out.push_back({a, b});
  }
  return out;
}

std::vector<Fact> RandomABCInstance(Rng& rng, int n, int facts_per_relation) {
  static const std::vector<std::pair<std::string, int>> kRels = {
      {"A", 2}, {"B", 2}, {"C", 3}};
  std::vector<Fact> out;
  for (const auto& [rel, arity] : kRels) {
    for (int i = 0; i < facts_per_relation; ++i) {
      Fact f{rel, {}};
      for (int p = 0; p < arity; ++p) f.args.push_back(rng.Uniform(1, n));
      out.push_back(std::move(f));
    }
  }
  return out;
}

const char* FoTemplate(int index) {
  static const char* kTemplates[kFoTemplates] = {
      // Nodes every successor of which has a successor.
      "Q(x) := forall y. (E(x, y) -> exists z. E(y, z))",
      // One-way edges.
      "Q(x, y) := E(x, y) & !E(y, x)",
      // Nodes with an out-edge that point back at every in-neighbour.
      "Q(x) := (exists y. E(x, y)) & forall z. (E(z, x) -> E(x, z))",
      // Two-step reachability without a direct edge.
      "Q(x, y) := (exists z. (E(x, z) & E(z, y))) & !E(x, y)",
      // Nodes without an in-edge.
      "Q(x) := !(exists y. E(y, x))",
      // Edges x->y whose every further step z can continue to some w that
      // has no edge back to x.
      "Q(x, y) := E(x, y) & forall z. (E(y, z) -> exists w. (E(z, w) & "
      "!E(w, x)))",
  };
  return kTemplates[index];
}

}  // namespace perfbench
