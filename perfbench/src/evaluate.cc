// The evaluate workload: a closed loop on one thread answering queries
// in-process, every operation a fresh (query, instance) draw: a determined
// query answered through its views, CQ/UCQ path queries, FO templates with
// ¬ and ∀, and Datalog transitive closure and reachability.

#include <map>
#include <memory>
#include <set>

#include "bench.h"
#include "core/rewriting.h"
#include "cq/matcher.h"
#include "cq/parser.h"
#include "datalog/program.h"
#include "fo/evaluator.h"
#include "fo/parser.h"
#include "gen.h"
#include "obs/metrics.h"
#include "reference.h"
#include "views/view_set.h"

namespace perfbench {

namespace {

enum class Kind { kRewrite, kCq, kUcq, kFo, kTc, kReach };

// One cycle of the class schedule (same order for every seed). Sizes are
// set so that no kind takes more than about half of the timed time.
constexpr Kind kCycle[] = {
    Kind::kRewrite, Kind::kFo,      Kind::kCq,      Kind::kReach,
    Kind::kFo,      Kind::kRewrite, Kind::kUcq,     Kind::kFo,
    Kind::kRewrite, Kind::kCq,      Kind::kReach,   Kind::kFo,
    Kind::kTc,      Kind::kRewrite, Kind::kUcq,     Kind::kFo,
    Kind::kCq,      Kind::kFo,      Kind::kReach,   Kind::kRewrite,
};
constexpr int kCycleLen = sizeof(kCycle) / sizeof(kCycle[0]);
constexpr int kChunk = 5 * kCycleLen;
constexpr int kCountOps = 20 * kCycleLen;
constexpr int kSetups = 5;
constexpr int kWarmupOps = 20 * kCycleLen;
constexpr int kValueBase = 1000;  // instance values, clear of interned names

vqdr::Value Node(int i) { return vqdr::Value(kValueBase + i); }

vqdr::Instance GraphInstance(const std::vector<Edge>& edges,
                             const char* relation = "E") {
  vqdr::Schema schema;
  schema.Add(relation, 2);
  vqdr::Instance db(schema);
  for (const Edge& e : edges) db.AddFact(relation, {Node(e.first), Node(e.second)});
  return db;
}

// Pairs of a binary relation, as node numbers.
std::set<Edge> AsPairs(const vqdr::Relation& r) {
  std::set<Edge> out;
  for (const vqdr::Tuple& t : r.tuples()) {
    out.insert({static_cast<int>(t[0].id - kValueBase),
                static_cast<int>(t[1].id - kValueBase)});
  }
  return out;
}

std::set<int> AsNodes(const vqdr::Relation& r) {
  std::set<int> out;
  for (const vqdr::Tuple& t : r.tuples()) {
    out.insert(static_cast<int>(t[0].id - kValueBase));
  }
  return out;
}

// A drawn operation with everything parsed, ready to run.
struct EvalOp {
  Kind kind = Kind::kCq;
  std::unique_ptr<vqdr::NamePool> pool;
  vqdr::Instance db;
  std::vector<Edge> edges;
  int n = 0;
  // kRewrite: views, rewriting R and its expansion Q = R∘V.
  vqdr::ViewSet views;
  vqdr::ConjunctiveQuery r;
  vqdr::ConjunctiveQuery q;
  // kCq / kUcq: path lengths.
  std::vector<int> lengths;
  vqdr::UnionQuery ucq;
  // kFo
  int fo_template = 0;
  std::optional<vqdr::FoQuery> fo;
  // kTc / kReach
  std::optional<vqdr::DatalogProgram> program;
  int source = 0;
  std::string text;  // for the digest and diagnostics
};

std::string PathRule(int k) {
  std::string body;
  for (int i = 0; i < k; ++i) {
    std::string from = i == 0 ? "x" : "z" + std::to_string(i);
    std::string to = i == k - 1 ? "y" : "z" + std::to_string(i + 1);
    body += (i ? ", " : "") + std::string("E(") + from + ", " + to + ")";
  }
  return "Q(x, y) :- " + body;
}

// True when the atoms' variables form one connected component.
bool Connected(const std::vector<vqdr::Atom>& atoms) {
  std::map<std::string, std::string> parent;
  auto find = [&parent](std::string v) {
    while (parent.count(v) != 0 && parent[v] != v) v = parent[v];
    return v;
  };
  for (const vqdr::Atom& a : atoms) {
    std::string first;
    for (const vqdr::Term& t : a.args) {
      if (!t.is_var()) continue;
      if (parent.count(t.var()) == 0) parent[t.var()] = t.var();
      if (first.empty()) first = find(t.var());
      parent[find(t.var())] = first;
    }
  }
  std::set<std::string> roots;
  for (const auto& [v, p] : parent) roots.insert(find(v));
  return roots.size() <= 1;
}

// The views of a random-family determinacy pair with R and Q = R∘V. Redraw
// until R has a head (answering a Boolean rewriting is not the data-sized
// enumeration this kind is here for), every view body and Q are connected
// and Q has at most 8 atoms: a disconnected body is a cross product, and
// enumerating Q over it for the answer check runs for minutes.
void DrawRewrite(Rng& rng, EvalOp* op) {
  DecideCase c;
  bool usable = false;
  while (!usable) {
    c = DrawDecideCase(rng, Family::kRandom, true, rng.Uniform(2, 4), "");
    op->pool = std::make_unique<vqdr::NamePool>();
    op->views = vqdr::ViewSet();
    usable = c.query.rfind("Q()", 0) != 0;
    for (const std::string& v : c.views) {
      vqdr::ConjunctiveQuery def = vqdr::ParseCq(v, *op->pool).value();
      usable = usable && Connected(def.atoms());
      std::string name = def.head_name();
      op->views.Add(std::move(name), vqdr::Query::FromCq(std::move(def)));
    }
    op->q = vqdr::ParseCq(c.query, *op->pool).value();
    usable = usable && op->q.atoms().size() <= 8 && Connected(op->q.atoms());
  }
  op->r = vqdr::ParseCq(c.rewriting, *op->pool).value();
  op->n = rng.Uniform(16, 40);
  vqdr::Schema schema;
  schema.Add("A", 2);
  schema.Add("B", 2);
  schema.Add("C", 3);
  op->db = vqdr::Instance(schema);
  for (const Fact& f : RandomABCInstance(rng, op->n, 2 * op->n)) {
    vqdr::Tuple t;
    for (int a : f.args) t.push_back(Node(a));
    op->db.AddFact(f.relation, t);
  }
  for (const std::string& v : c.views) op->text += v + "; ";
  op->text += c.rewriting;
}

EvalOp DrawOp(Rng& rng, Kind kind) {
  EvalOp op;
  op.kind = kind;
  op.pool = std::make_unique<vqdr::NamePool>();
  switch (kind) {
    case Kind::kRewrite:
      DrawRewrite(rng, &op);
      break;
    case Kind::kCq: {
      op.n = rng.Uniform(32, 128);
      op.edges = RandomGraph(rng, op.n, 2 * op.n);
      op.lengths = {rng.Uniform(2, 3)};
      op.text = PathRule(op.lengths[0]);
      op.q = vqdr::ParseCq(op.text, *op.pool).value();
      break;
    }
    case Kind::kUcq: {
      op.n = rng.Uniform(32, 96);
      op.edges = RandomGraph(rng, op.n, 2 * op.n);
      op.lengths = {1, rng.Uniform(2, 3)};
      op.text = PathRule(op.lengths[0]) + " | " + PathRule(op.lengths[1]);
      op.ucq = vqdr::ParseUcq(op.text, *op.pool).value();
      break;
    }
    case Kind::kFo: {
      op.n = rng.Uniform(6, 10);
      op.edges = RandomGraph(rng, op.n, rng.Uniform(op.n, 3 * op.n));
      op.fo_template = rng.Uniform(0, kFoTemplates - 1);
      op.text = FoTemplate(op.fo_template);
      op.fo = vqdr::ParseFoQuery(op.text, *op.pool).value();
      break;
    }
    case Kind::kTc: {
      op.n = rng.Uniform(16, 48);
      op.edges = RandomGraph(rng, op.n, op.n + op.n / 2);
      op.text = "T(x, y) :- E(x, y); T(x, y) :- E(x, z), T(z, y)";
      op.program = vqdr::ParseDatalog(op.text, *op.pool).value();
      break;
    }
    case Kind::kReach: {
      op.n = rng.Uniform(16, 48);
      op.edges = RandomGraph(rng, op.n, 2 * op.n);
      op.source = op.edges.empty() ? 1 : op.edges[0].first;
      op.text = "Reach(y) :- Src(y); Reach(y) :- Reach(x), E(x, y)";
      op.program = vqdr::ParseDatalog(op.text, *op.pool).value();
      break;
    }
  }
  if (kind != Kind::kRewrite) {
    op.db = GraphInstance(op.edges);
    if (kind == Kind::kReach) {
      vqdr::Schema schema = op.db.schema();
      schema.Add("Src", 1);
      vqdr::Instance db(schema);
      db.Set("E", op.db.Get("E"));
      db.AddFact("Src", {Node(op.source)});
      op.db = std::move(db);
    }
    for (const Edge& e : op.edges) {
      op.text += ";" + std::to_string(e.first) + ">" + std::to_string(e.second);
    }
  }
  return op;
}

class EvalStream {
 public:
  explicit EvalStream(std::uint64_t seed) : rng_(seed) {}
  EvalOp Next() { return DrawOp(rng_, kCycle[index_++ % kCycleLen]); }

 private:
  Rng rng_;
  std::uint64_t index_ = 0;
};

// What one operation produced, for the untimed answer check.
struct Answer {
  vqdr::Relation relation;
  std::size_t idb_facts = 0;
  bool ok = true;
};

// Runs one operation; with a log, each library call gets its span.
Answer Run(const EvalOp& op, SpanLog* log, std::uint64_t id) {
  Answer a;
  switch (op.kind) {
    case Kind::kRewrite: {
      vqdr::Instance image;
      {
        Scoped s(log, "views.apply", id);
        image = op.views.Apply(op.db);
      }
      Scoped s(log, "rewrite.answer", id);
      a.relation = vqdr::EvaluateCq(op.r, image);
      break;
    }
    case Kind::kCq: {
      Scoped s(log, "cq.eval", id);
      a.relation = vqdr::EvaluateCq(op.q, op.db);
      break;
    }
    case Kind::kUcq: {
      Scoped s(log, "cq.eval", id);
      a.relation = vqdr::EvaluateUcq(op.ucq, op.db);
      break;
    }
    case Kind::kFo: {
      Scoped s(log, "fo.eval", id);
      a.relation = vqdr::EvaluateFo(*op.fo, op.db);
      break;
    }
    case Kind::kTc:
    case Kind::kReach: {
      Scoped s(log, "datalog.eval", id);
      vqdr::StatusOr<vqdr::Instance> out = op.program->Evaluate(op.db);
      if (!out.ok()) {
        a.ok = false;
        break;
      }
      const char* idb = op.kind == Kind::kTc ? "T" : "Reach";
      a.relation = out->Get(idb);
      a.idb_facts = a.relation.size();
      break;
    }
  }
  return a;
}

// Checks an answer against the benchmark's own reference.
bool Check(const EvalOp& op, const Answer& a) {
  if (!a.ok) return false;
  switch (op.kind) {
    case Kind::kRewrite:
      // R(V(D)) = Q(D) for Q = R∘V.
      return a.relation == vqdr::EvaluateCq(op.q, op.db);
    case Kind::kCq:
      return AsPairs(a.relation) == WalkPairs(op.n, op.edges, op.lengths[0]);
    case Kind::kUcq: {
      std::set<Edge> expected;
      for (int k : op.lengths) {
        std::set<Edge> part = WalkPairs(op.n, op.edges, k);
        expected.insert(part.begin(), part.end());
      }
      return AsPairs(a.relation) == expected;
    }
    case Kind::kFo: {
      FoAnswer expected = FoReference(op.fo_template, op.n, op.edges);
      if (a.relation.arity() == 1) return AsNodes(a.relation) == expected.nodes;
      return AsPairs(a.relation) == expected.pairs;
    }
    case Kind::kTc:
      return AsPairs(a.relation) == Closure(op.n, op.edges);
    case Kind::kReach:
      return AsNodes(a.relation) == Reachable(op.n, op.edges, op.source);
  }
  return false;
}

double SetUp(std::uint64_t seed, int repeat, Outcome* out) {
  std::int64_t t0 = NowNs();
  EvalStream warm(StreamSeed(seed, 200 + repeat));
  for (int i = 0; i < kWarmupOps; ++i) {
    EvalOp op = warm.Next();
    if (!Check(op, Run(op, nullptr, 0))) out->Fail("warm-up answer");
  }
  return static_cast<double>(NowNs() - t0) * 1e-9;
}

struct Counts {
  double attempts = 0;
  double tuples = 0;
  double datalog_facts = 0;
  double datalog_ops = 0;
};

TimedPhase RunPhase(const Args& args, double seconds, SpanLog* log,
                    std::uint64_t* digest, Counts* counts, double* op_total_us,
                    Outcome* out) {
  TimedPhase phase;
  EvalStream stream(StreamSeed(args.seed, 2));
  vqdr::obs::Counter& attempts = vqdr::obs::GetCounter("cq.hom.attempts");
  std::uint64_t counted = 0;
  std::uint64_t next_op = 1;
  const std::int64_t budget_ns = static_cast<std::int64_t>(seconds * 1e9);
  while (phase.wall_ns < budget_ns ||
         (log != nullptr && counted < static_cast<std::uint64_t>(kCountOps))) {
    std::vector<EvalOp> ops;
    for (int i = 0; i < kChunk; ++i) {
      ops.push_back(stream.Next());
      if (digest != nullptr && next_op + i <= static_cast<std::uint64_t>(kCountOps)) {
        *digest = Fnv(*digest, ops.back().text);
      }
    }
    std::vector<Answer> answers(ops.size());
    std::int64_t start = NowNs();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const bool count = log != nullptr && counted < static_cast<std::uint64_t>(kCountOps);
      std::uint64_t a0 = count ? attempts.value() : 0;
      int span = log != nullptr ? log->Begin("evaluate.op", next_op + i) : -1;
      std::int64_t t0 = NowNs();
      answers[i] = Run(ops[i], log, next_op + i);
      std::int64_t t1 = NowNs();
      if (log != nullptr) log->End(span);
      phase.Record(static_cast<double>(t1 - t0));
      if (log != nullptr) *op_total_us += static_cast<double>(t1 - t0) / 1e3;
      if (count) {
        counts->attempts += static_cast<double>(attempts.value() - a0);
        counts->tuples += static_cast<double>(answers[i].relation.size());
        if (ops[i].kind == Kind::kTc || ops[i].kind == Kind::kReach) {
          counts->datalog_facts += static_cast<double>(answers[i].idb_facts);
          counts->datalog_ops += 1;
        }
        ++counted;
      }
    }
    phase.EndChunk(NowNs() - start, ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (!Check(ops[i], answers[i])) out->Fail("wrong answer for " + ops[i].text);
    }
    out->attempted += ops.size();
    next_op += ops.size();
  }
  return phase;
}

}  // namespace

Outcome RunEvaluate(const Args& args) {
  Outcome out;
  if (!args.trace) {
    std::vector<double> setups;
    for (int k = 0; k < kSetups; ++k) setups.push_back(SetUp(args.seed, k, &out));
    TimedPhase phase = RunPhase(args, args.seconds, nullptr, nullptr, nullptr,
                                nullptr, &out);
    AddEndToEnd(phase, setups, PeakRssMb(0), &out);
    return out;
  }

  SetUp(args.seed, 0, &out);
  TimedPhase plain = RunPhase(args, TracedPhaseSeconds(args), nullptr, nullptr,
                              nullptr, nullptr, &out);
  SpanLog log(1);
  std::uint64_t digest = kFnvBasis;
  Counts counts;
  double op_total = 0;
  std::int64_t epoch = NowNs();
  TimedPhase traced = RunPhase(args, TracedPhaseSeconds(args), &log, &digest, &counts,
                               &op_total, &out);

  std::map<std::string, SpanStats> stats = SummarizeSpans({&log});
  AddSpanMetric(stats, "views.apply", "views.apply_us", op_total, &out);
  AddSpanMetric(stats, "rewrite.answer", "rewrite.answer_us", op_total, &out);
  AddSpanMetric(stats, "cq.eval", "cq.eval_us", op_total, &out);
  AddSpanMetric(stats, "fo.eval", "fo.eval_us", op_total, &out);
  AddSpanMetric(stats, "datalog.eval", "datalog.eval_us", op_total, &out);
  out.metrics["cq.hom.attempts_per_op"] = {counts.attempts / kCountOps, "count"};
  out.metrics["answer_tuples_per_op"] = {counts.tuples / kCountOps, "count"};
  out.metrics["datalog.facts_per_op"] = {
      counts.datalog_ops > 0 ? counts.datalog_facts / counts.datalog_ops : 0,
      "count"};
  double plain_tput = static_cast<double>(plain.ops) / static_cast<double>(plain.wall_ns);
  double traced_tput = static_cast<double>(traced.ops) / static_cast<double>(traced.wall_ns);
  out.metrics["trace.overhead"] = {plain_tput / traced_tput - 1, "ratio"};

  std::string error;
  if (!WriteTraceJsonl(args.work_dir + "/evaluate.trace.jsonl", {&log}, epoch,
                       &error)) {
    out.Fail("trace: " + error);
  }
  WriteTraceSummary(args, "evaluate", digest, out);
  return out;
}

}  // namespace perfbench
