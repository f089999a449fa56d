#include "reductions/gimp.h"

#include <functional>
#include <map>

#include "base/check.h"
#include "fo/evaluator.h"
#include "fo/normalize.h"
#include "fo/parser.h"
#include "gen/enumerate.h"

namespace vqdr {

namespace {

constexpr char kDiagName[] = "Diag__";

// Replaces equality atoms by Diag__ atoms (the construction's safe-view
// encoding of equality).
FoPtr ReplaceEquality(const FoPtr& f, bool* used_equality) {
  using F = FoFormula;
  using Kind = FoFormula::Kind;
  switch (f->kind()) {
    case Kind::kEquals:
      *used_equality = true;
      return F::MakeAtom(Atom(kDiagName, {f->lhs(), f->rhs()}));
    case Kind::kNot:
      return F::Not(ReplaceEquality(f->children()[0], used_equality));
    case Kind::kAnd: {
      std::vector<FoPtr> kids;
      for (const FoPtr& c : f->children()) {
        kids.push_back(ReplaceEquality(c, used_equality));
      }
      return F::And(std::move(kids));
    }
    case Kind::kExists:
      return F::Exists(f->quantified_vars(),
                       ReplaceEquality(f->children()[0], used_equality));
    default:
      return f;
  }
}

std::vector<std::string> SortedFreeVars(const FoPtr& f) {
  std::set<std::string> vars = f->FreeVariables();
  return std::vector<std::string>(vars.begin(), vars.end());
}

std::vector<Term> VarTerms(const std::vector<std::string>& vars) {
  std::vector<Term> terms;
  terms.reserve(vars.size());
  for (const std::string& v : vars) terms.push_back(Term::Var(v));
  return terms;
}

}  // namespace

StatusOr<GimpConstruction> GimpConstruction::Build(
    FoPtr phi, Schema tau, RelationDecl t_decl,
    std::vector<RelationDecl> s_decls) {
  GimpConstruction g;
  g.tau_ = tau;
  g.t_name_ = t_decl.name;
  g.tau_prime_ = tau;
  g.tau_prime_.Add(t_decl.name, t_decl.arity);
  for (const RelationDecl& s : s_decls) g.tau_prime_.Add(s.name, s.arity);

  if (!phi->FreeVariables().empty()) {
    return Status::Error("phi must be a sentence");
  }

  // Normalize to {∧, ¬, ∃} and replace equality by Diag__.
  FoPtr normalized = SimplifyDoubleNegation(ToAndNotExists(phi));
  bool used_equality = false;
  normalized = ReplaceEquality(normalized, &used_equality);

  g.full_schema_ = g.tau_prime_;
  if (used_equality) g.full_schema_.Add(kDiagName, 2);

  // Index the subformula DAG (deduplicated by rendering).
  std::map<std::string, int> index;
  std::function<StatusOr<int>(const FoPtr&)> visit =
      [&](const FoPtr& f) -> StatusOr<int> {
    std::string key = f->ToString();
    auto it = index.find(key);
    if (it != index.end()) return it->second;

    using Kind = FoFormula::Kind;
    // Visit children first so this node's index (and thus its fresh symbol
    // names) is assigned after theirs — names stay collision-free.
    switch (f->kind()) {
      case Kind::kNot:
      case Kind::kAnd:
      case Kind::kExists: {
        for (const FoPtr& c : f->children()) {
          StatusOr<int> child = visit(c);
          if (!child.ok()) return child.status();
        }
        break;
      }
      case Kind::kTrue:
      case Kind::kFalse:
        return Status::Error("true/false literals not supported in phi");
      case Kind::kAtom:
        break;
      default:
        return Status::Error("phi must normalize to the {and,not,exists} "
                             "fragment");
    }

    Node node;
    node.formula = f;
    node.vars = SortedFreeVars(f);
    int arity = static_cast<int>(node.vars.size());
    int id = static_cast<int>(g.nodes_.size());
    std::string bar_name = "Xbar" + std::to_string(id);
    std::string aux_name = "Xf" + std::to_string(id);

    switch (f->kind()) {
      case Kind::kAtom: {
        if (!g.tau_prime_.Contains(f->atom().predicate) &&
            f->atom().predicate != kDiagName) {
          return Status::Error("phi mentions unknown relation " +
                               f->atom().predicate);
        }
        node.pos = f->atom();
        node.neg = Atom(bar_name, VarTerms(node.vars));
        g.full_schema_.Add(bar_name, arity);
        break;
      }
      case Kind::kNot: {
        const Node& c = g.nodes_[index.at(f->children()[0]->ToString())];
        node.pos = c.neg;
        node.neg = c.pos;
        break;
      }
      case Kind::kAnd:
      case Kind::kExists: {
        node.pos = Atom(aux_name, VarTerms(node.vars));
        node.neg = Atom(bar_name, VarTerms(node.vars));
        node.has_own_symbol = true;
        g.full_schema_.Add(aux_name, arity);
        g.full_schema_.Add(bar_name, arity);
        break;
      }
      default:
        break;
    }
    g.nodes_.push_back(std::move(node));
    index.emplace(key, id);
    return id;
  };
  StatusOr<int> root_or = visit(normalized);
  if (!root_or.ok()) return root_or.status();
  int root = root_or.value();
  g.phi_ = phi;

  // --- Views ---
  // V_τ: the base relations are exposed verbatim.
  for (const RelationDecl& d : tau.decls()) {
    std::vector<Term> head;
    for (int i = 0; i < d.arity; ++i) {
      head.push_back(Term::Var("t" + std::to_string(i)));
    }
    ConjunctiveQuery v("Vtau_" + d.name, head);
    v.AddAtom(Atom(d.name, head));
    g.views_.Add("Vtau_" + d.name, Query::FromCq(v));
  }
  // The diagonal relation is exposed (it carries no information beyond the
  // active domain).
  if (used_equality) {
    ConjunctiveQuery v("Vdiag", {Term::Var("x"), Term::Var("y")});
    v.AddAtom(Atom(kDiagName, {Term::Var("x"), Term::Var("y")}));
    g.views_.Add("Vdiag", Query::FromCq(v));
  }

  for (std::size_t i = 0; i < g.nodes_.size(); ++i) {
    const Node& node = g.nodes_[i];
    if (node.formula->kind() == FoFormula::Kind::kNot) continue;
    std::vector<Term> head = VarTerms(node.vars);
    std::string id = std::to_string(i);

    // Complement pair: pos ∧ neg = ∅ and pos ∨ neg = adom^k.
    {
      ConjunctiveQuery inter("Vint" + id, head);
      inter.AddAtom(node.pos);
      inter.AddAtom(node.neg);
      g.views_.Add("Vint" + id, Query::FromCq(inter));

      UnionQuery uni;
      ConjunctiveQuery d1("Vuni" + id, head);
      d1.AddAtom(node.pos);
      uni.AddDisjunct(std::move(d1));
      ConjunctiveQuery d2("Vuni" + id, head);
      d2.AddAtom(node.neg);
      uni.AddDisjunct(std::move(d2));
      g.views_.Add("Vuni" + id, Query::FromUcq(uni));
    }

    if (node.formula->kind() == FoFormula::Kind::kAnd) {
      // ⋀ pos(children) ∧ neg(θ) = ∅.
      ConjunctiveQuery v0("Vand" + id, head);
      for (const FoPtr& c : node.formula->children()) {
        bool dummy = false;
        (void)dummy;
        const Node& cn = g.nodes_[index.at(c->ToString())];
        v0.AddAtom(cn.pos);
      }
      v0.AddAtom(node.neg);
      g.views_.Add("Vand" + id, Query::FromCq(v0));
      // R_θ ∧ neg(child_j) = ∅ for each child.
      int j = 0;
      for (const FoPtr& c : node.formula->children()) {
        const Node& cn = g.nodes_[index.at(c->ToString())];
        ConjunctiveQuery vj("Vand" + id + "_" + std::to_string(j), head);
        vj.AddAtom(node.pos);
        vj.AddAtom(cn.neg);
        g.views_.Add("Vand" + id + "_" + std::to_string(j),
                     Query::FromCq(vj));
        ++j;
      }
    } else if (node.formula->kind() == FoFormula::Kind::kExists) {
      const Node& cn =
          g.nodes_[index.at(node.formula->children()[0]->ToString())];
      // pos(child) ∧ neg(θ) = ∅  (the quantified variable projects out).
      ConjunctiveQuery v1("Vex" + id, head);
      v1.AddAtom(cn.pos);
      v1.AddAtom(node.neg);
      g.views_.Add("Vex" + id, Query::FromCq(v1));
      // (∃v pos(child)) ∨ neg(θ) = adom^k.
      UnionQuery v2;
      ConjunctiveQuery d1("Vexu" + id, head);
      d1.AddAtom(cn.pos);
      v2.AddDisjunct(std::move(d1));
      ConjunctiveQuery d2("Vexu" + id, head);
      d2.AddAtom(node.neg);
      v2.AddDisjunct(std::move(d2));
      g.views_.Add("Vexu" + id, Query::FromUcq(v2));
    }
  }
  // V_φ: the root truth value.
  {
    const Node& root_node = g.nodes_[root];
    VQDR_CHECK(root_node.vars.empty());
    ConjunctiveQuery v("Vphi", {});
    v.AddAtom(root_node.pos);
    g.views_.Add("Vphi", Query::FromCq(v));
  }

  // --- ψ: every auxiliary relation has its intended content ---
  std::vector<FoPtr> clauses;
  if (used_equality) {
    clauses.push_back(FoFormula::Forall(
        {"x", "y"},
        FoFormula::Iff(
            FoFormula::MakeAtom(
                Atom(kDiagName, {Term::Var("x"), Term::Var("y")})),
            FoFormula::Eq(Term::Var("x"), Term::Var("y")))));
  }
  for (std::size_t i = 0; i < g.nodes_.size(); ++i) {
    const Node& node = g.nodes_[i];
    using Kind = FoFormula::Kind;
    if (node.formula->kind() == Kind::kNot) continue;
    // Bar clause: Bar_θ(x̄) ↔ ¬pos(θ)(x̄).
    clauses.push_back(FoFormula::Forall(
        node.vars,
        FoFormula::Iff(FoFormula::MakeAtom(node.neg),
                       FoFormula::Not(FoFormula::MakeAtom(node.pos)))));
    if (!node.has_own_symbol) continue;
    // Structural clause for R_θ.
    FoPtr structural;
    if (node.formula->kind() == Kind::kAnd) {
      std::vector<FoPtr> parts;
      for (const FoPtr& c : node.formula->children()) {
        parts.push_back(FoFormula::MakeAtom(
            g.nodes_[index.at(c->ToString())].pos));
      }
      structural = FoFormula::And(std::move(parts));
    } else {
      const Node& cn =
          g.nodes_[index.at(node.formula->children()[0]->ToString())];
      structural = FoFormula::Exists(node.formula->quantified_vars(),
                                     FoFormula::MakeAtom(cn.pos));
    }
    clauses.push_back(FoFormula::Forall(
        node.vars,
        FoFormula::Iff(FoFormula::MakeAtom(node.pos), structural)));
  }
  g.psi_ = FoFormula::And(std::move(clauses));

  // --- Q = ψ ∧ φ ∧ T(x̄) ---
  FoQuery q;
  q.head_name = "Q";
  std::vector<Term> t_args;
  for (int i = 0; i < t_decl.arity; ++i) {
    q.free_vars.push_back("h" + std::to_string(i + 1));
    t_args.push_back(Term::Var(q.free_vars.back()));
  }
  q.formula = FoFormula::And(
      {g.psi_, phi, FoFormula::MakeAtom(Atom(t_decl.name, t_args))});
  g.query_ = Query::FromFo(std::move(q));
  return g;
}

Instance GimpConstruction::CompleteInstance(
    const Instance& d_tau_prime) const {
  Instance result(full_schema_);
  for (const RelationDecl& d : d_tau_prime.schema().decls()) {
    result.Set(d.name, d_tau_prime.Get(d.name));
  }
  // Universe: active domain plus φ's constants.
  std::set<Value> universe_set = d_tau_prime.ActiveDomain();
  for (Value c : phi_->Constants()) universe_set.insert(c);
  std::vector<Value> universe(universe_set.begin(), universe_set.end());

  // Diagonal first (node formulas may reference it).
  if (full_schema_.Contains(kDiagName)) {
    Relation diag(2);
    for (Value v : universe) diag.Insert(Tuple{v, v});
    result.Set(kDiagName, diag);
  }

  for (const Node& node : nodes_) {
    if (node.formula->kind() == FoFormula::Kind::kNot) continue;
    FoQuery content_query;
    content_query.free_vars = node.vars;
    content_query.formula = node.formula;
    Relation content = EvaluateFo(content_query, result);
    if (node.has_own_symbol) {
      result.Set(node.pos.predicate, content);
    }
    // Bar = universe^k − content.
    Relation bar(static_cast<int>(node.vars.size()));
    for (const Tuple& t : UniverseTuples(bar.arity(), universe)) {
      if (!content.Contains(t)) bar.Insert(t);
    }
    result.Set(node.neg.predicate, bar);
  }
  return result;
}

bool ParityGimp::Even(const Instance& d_tau) {
  return d_tau.Get("U").size() % 2 == 0;
}

StatusOr<ParityGimp> BuildParityGimp() {
  NamePool pool;
  const char* phi_text =
      "(forall x, y . (Ord(x, y) -> U(x) & U(y))) "
      "& (forall x . !Ord(x, x)) "
      "& (forall x, y, z . (Ord(x, y) & Ord(y, z) -> Ord(x, z))) "
      "& (forall x, y . (U(x) & U(y) & !(x = y) -> Ord(x, y) | Ord(y, x))) "
      "& (forall x . (Alt(x) -> U(x))) "
      "& (forall x . (U(x) & !(exists y . Ord(y, x)) -> Alt(x))) "
      "& (forall x, y . (Ord(x, y) & !(exists z . (Ord(x, z) & Ord(z, y))) "
      "-> (Alt(y) <-> !Alt(x)))) "
      "& (T() <-> (!(exists x . U(x)) "
      "| (exists x . (U(x) & !(exists y . Ord(x, y)) & !Alt(x)))))";
  StatusOr<FoPtr> phi = ParseFo(phi_text, pool);
  if (!phi.ok()) return phi.status();

  StatusOr<GimpConstruction> construction = GimpConstruction::Build(
      phi.value(), Schema{{"U", 1}}, RelationDecl{"T", 0},
      {RelationDecl{"Ord", 2}, RelationDecl{"Alt", 1}});
  if (!construction.ok()) return construction.status();
  ParityGimp result;
  result.construction = std::move(construction).value();
  return result;
}

}  // namespace vqdr
