// The decide workload: a closed loop on one thread calling
// DecideUnrestrictedDeterminacy in-process with library defaults (memo
// off), every operation a fresh draw.

#include <algorithm>
#include <memory>
#include <set>

#include "bench.h"
#include "chase/view_inverse.h"
#include "core/determinacy.h"
#include "cq/canonical.h"
#include "cq/matcher.h"
#include "cq/parser.h"
#include "decide_ops.h"
#include "gen.h"
#include "obs/metrics.h"

namespace perfbench {

namespace {

// One cycle of the class schedule. Shares: 13/20 determined by
// construction (Q = R∘V), 7/20 reading a relation no view mentions; path
// views 10/20 (chain 4, star 3, cycle 3), random CQ views 5/20,
// project-select views 5/20. The same slot order holds for every seed.
struct Slot {
  Family family;
  bool determined;
};
constexpr Slot kCycle[] = {
    {Family::kPathChain, true},      {Family::kRandom, true},
    {Family::kProjectSelect, true},  {Family::kPathStar, true},
    {Family::kRandom, false},        {Family::kPathCycle, true},
    {Family::kProjectSelect, false}, {Family::kPathChain, false},
    {Family::kRandom, true},         {Family::kPathStar, true},
    {Family::kProjectSelect, true},  {Family::kPathCycle, false},
    {Family::kRandom, true},         {Family::kPathChain, true},
    {Family::kProjectSelect, false}, {Family::kPathStar, false},
    {Family::kRandom, false},        {Family::kPathCycle, true},
    {Family::kProjectSelect, true},  {Family::kPathChain, true},
};
constexpr int kCycleLen = sizeof(kCycle) / sizeof(kCycle[0]);
constexpr int kChunk = 10 * kCycleLen;
// Ops whose counts the traced run reports: a fixed prefix, so counts repeat
// exactly for a seed whatever the machine's speed.
constexpr int kCountOps = 50 * kCycleLen;
constexpr int kSetups = 5;
constexpr int kWarmupOps = 60 * kCycleLen;

int MaxAtoms(Family f) {
  switch (f) {
    case Family::kPathChain: return 8;
    case Family::kPathStar: return 8;
    case Family::kPathCycle: return 7;
    case Family::kRandom: return 5;
    case Family::kProjectSelect: return 6;
  }
  return 1;
}

}  // namespace

DecideStream::DecideStream(std::uint64_t seed, int max_atoms)
    : rng_(seed), max_atoms_(max_atoms) {}

DecideCase DecideStream::Next(const std::string& tag) {
  const Slot& slot = kCycle[index_++ % kCycleLen];
  int cap = MaxAtoms(slot.family);
  if (max_atoms_ > 0) cap = std::min(cap, max_atoms_);
  int size = rng_.Uniform(1, cap);
  return DrawDecideCase(rng_, slot.family, slot.determined, size, tag);
}

DecideOp ParseDecideOp(const DecideCase& c) {
  DecideOp op;
  op.pool = std::make_unique<vqdr::NamePool>();
  for (const std::string& v : c.views) {
    vqdr::ConjunctiveQuery def = vqdr::ParseCq(v, *op.pool).value();
    std::string name = def.head_name();
    op.views.Add(std::move(name), vqdr::Query::FromCq(std::move(def)));
  }
  op.query = vqdr::ParseCq(c.query, *op.pool).value();
  op.determined = c.determined;
  op.text = c.query;
  return op;
}

ReplayResult ReplayDecision(const vqdr::ViewSet& views,
                            const vqdr::ConjunctiveQuery& q, SpanLog* log,
                            std::uint64_t op) {
  using namespace vqdr;
  Scoped root(log, "decide.replay", op);
  ValueFactory factory;
  FrozenQuery frozen;
  Instance d0;
  {
    Scoped s(log, "cq.canonical_db", op);
    for (const View& v : views.views()) {
      for (Value c : v.query.AsCq().Constants()) factory.NoteUsed(c);
    }
    frozen = Freeze(q, factory);
    d0 = Instance(ChaseSchema(views, frozen.instance.schema()));
    for (const RelationDecl& d : frozen.instance.schema().decls()) {
      d0.Set(d.name, frozen.instance.Get(d.name));
    }
  }
  Instance image;
  {
    Scoped s(log, "views.apply", op);
    image = views.Apply(d0);
  }
  Instance inverse;
  {
    Scoped s(log, "chase.view_inverse", op);
    Instance empty(d0.schema());
    inverse = ViewInverse(views, empty, image, factory);
  }
  ReplayResult out;
  {
    Scoped s(log, "cq.match", op);
    out.determined = CqAnswerContains(q, inverse, frozen.frozen_head);
  }
  if (out.determined) {
    Scoped s(log, "rewrite.to_query", op);
    std::set<Value> constants = q.Constants();
    for (const View& v : views.views()) {
      for (Value c : v.query.AsCq().Constants()) constants.insert(c);
    }
    InstanceToQuery(image, frozen.frozen_head, constants, q.head_name());
  }
  out.image = image.TupleCount();
  out.inverse = inverse.TupleCount();
  return out;
}

namespace {

// Fresh draws of one chunk, parsed outside the timed interval.
std::vector<DecideOp> NextChunk(DecideStream& stream, int n,
                                std::uint64_t* digest,
                                std::uint64_t* digest_ops) {
  std::vector<DecideOp> ops;
  ops.reserve(n);
  for (int i = 0; i < n; ++i) {
    DecideCase c = stream.Next("");
    if (digest != nullptr && *digest_ops < static_cast<std::uint64_t>(kCountOps)) {
      for (const std::string& v : c.views) *digest = Fnv(*digest, v);
      *digest = Fnv(*digest, c.query);
      ++*digest_ops;
    }
    ops.push_back(ParseDecideOp(c));
  }
  return ops;
}

// Set-up: the generator and a warm-up on draws the timed phase never sees.
double SetUp(std::uint64_t seed, int repeat, Outcome* out) {
  std::int64_t t0 = NowNs();
  DecideStream warm(StreamSeed(seed, 100 + repeat));
  std::vector<DecideOp> ops = NextChunk(warm, kWarmupOps, nullptr, nullptr);
  for (const DecideOp& op : ops) {
    vqdr::UnrestrictedDeterminacyResult r =
        vqdr::DecideUnrestrictedDeterminacy(op.views, op.query);
    if (r.determined != op.determined) out->Fail("warm-up verdict");
  }
  return static_cast<double>(NowNs() - t0) * 1e-9;
}

struct Counters {
  vqdr::obs::Counter& attempts = vqdr::obs::GetCounter("cq.hom.attempts");
  vqdr::obs::Counter& matches = vqdr::obs::GetCounter("cq.hom.matches");
  vqdr::obs::Counter& facts = vqdr::obs::GetCounter("chase.view_inverse.facts_added");
  vqdr::obs::Counter& chased = vqdr::obs::GetCounter("chase.view_inverse.tuples_chased");
};

struct OpRecord {
  bool determined = false;
  std::size_t image = 0;
  std::size_t inverse = 0;
  std::int64_t dur_ns = 0;
};

// The timed phase. With `log`, each decision is a span, counters are read
// around the first kCountOps decisions, and after each chunk (untimed) the
// decision is replayed stage by stage.
TimedPhase RunPhase(const Args& args, double seconds, SpanLog* log,
                    std::uint64_t* digest, Outcome* out,
                    std::map<std::string, double>* counts,
                    std::vector<double>* glue_us, double* glue_total_us,
                    double* op_total_us) {
  TimedPhase phase;
  DecideStream stream(StreamSeed(args.seed, 1));
  Counters counters;
  std::uint64_t digest_ops = 0;
  std::uint64_t counted = 0;
  std::uint64_t next_op = 1;
  const std::int64_t budget_ns = static_cast<std::int64_t>(seconds * 1e9);
  while (phase.wall_ns < budget_ns ||
         (log != nullptr && counted < static_cast<std::uint64_t>(kCountOps))) {
    std::vector<DecideOp> ops = NextChunk(stream, kChunk, digest, &digest_ops);
    std::vector<OpRecord> records(ops.size());
    std::int64_t start = NowNs();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const DecideOp& op = ops[i];
      const bool count = log != nullptr && counted < static_cast<std::uint64_t>(kCountOps);
      std::uint64_t a0 = 0, m0 = 0, f0 = 0, c0 = 0;
      if (count) {
        a0 = counters.attempts.value();
        m0 = counters.matches.value();
        f0 = counters.facts.value();
        c0 = counters.chased.value();
      }
      int span = log != nullptr ? log->Begin("decide.op", next_op + i) : -1;
      std::int64_t t0 = NowNs();
      vqdr::UnrestrictedDeterminacyResult r =
          vqdr::DecideUnrestrictedDeterminacy(op.views, op.query);
      std::int64_t t1 = NowNs();
      if (log != nullptr) log->End(span);
      phase.Record(static_cast<double>(t1 - t0));
      OpRecord& rec = records[i];
      rec.determined = r.determined;
      rec.dur_ns = t1 - t0;
      if (!vqdr::guard::IsComplete(r.outcome)) out->Fail("decision stopped early");
      if (log != nullptr) {
        rec.image = r.canonical_view_image.TupleCount();
        rec.inverse = r.chase_inverse.TupleCount();
      }
      if (count) {
        (*counts)["attempts"] += static_cast<double>(counters.attempts.value() - a0);
        (*counts)["matches"] += static_cast<double>(counters.matches.value() - m0);
        (*counts)["facts"] += static_cast<double>(counters.facts.value() - f0);
        (*counts)["chased"] += static_cast<double>(counters.chased.value() - c0);
        (*counts)["determined"] += r.determined ? 1 : 0;
        ++counted;
      }
    }
    phase.EndChunk(NowNs() - start, ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (records[i].determined != ops[i].determined) {
        out->Fail(std::string("wrong verdict for ") + ops[i].text);
      }
    }
    if (log != nullptr) {
      for (std::size_t i = 0; i < ops.size(); ++i) {
        std::size_t first = log->spans().size();
        ReplayResult rep = ReplayDecision(ops[i].views, ops[i].query, log,
                                          next_op + i);
        const OpRecord& rec = records[i];
        if (rep.determined != rec.determined || rep.image != rec.image ||
            rep.inverse != rec.inverse) {
          out->Fail("replay disagrees with DecideUnrestrictedDeterminacy");
        }
        // Glue: decision time not covered by the replayed stages.
        double stages_ns = 0;
        const std::vector<Span>& spans = log->spans();
        for (std::size_t k = first + 1; k < spans.size(); ++k) {
          stages_ns += static_cast<double>(spans[k].end_ns - spans[k].start_ns);
        }
        double glue = std::max(0.0, static_cast<double>(rec.dur_ns) - stages_ns) / 1e3;
        glue_us->push_back(glue);
        *glue_total_us += glue;
        *op_total_us += static_cast<double>(rec.dur_ns) / 1e3;
      }
    }
    out->attempted += ops.size();
    next_op += ops.size();
  }
  return phase;
}

}  // namespace

Outcome RunDecide(const Args& args) {
  Outcome out;
  if (!args.trace) {
    std::vector<double> setups;
    for (int k = 0; k < kSetups; ++k) setups.push_back(SetUp(args.seed, k, &out));
    TimedPhase phase = RunPhase(args, args.seconds, nullptr, nullptr, &out,
                                nullptr, nullptr, nullptr, nullptr);
    AddEndToEnd(phase, setups, PeakRssMb(0), &out);
    return out;
  }

  SetUp(args.seed, 0, &out);
  TimedPhase plain = RunPhase(args, TracedPhaseSeconds(args), nullptr, nullptr, &out,
                              nullptr, nullptr, nullptr, nullptr);
  SpanLog log(1);
  std::uint64_t digest = kFnvBasis;
  std::map<std::string, double> counts;
  std::vector<double> glue_us;
  double glue_total = 0;
  double op_total = 0;
  std::int64_t epoch = NowNs();
  TimedPhase traced = RunPhase(args, TracedPhaseSeconds(args), &log, &digest, &out,
                               &counts, &glue_us, &glue_total, &op_total);

  std::map<std::string, SpanStats> stats = SummarizeSpans({&log});
  AddSpanMetric(stats, "cq.canonical_db", "cq.canonical_db_us", op_total, &out);
  AddSpanMetric(stats, "cq.match", "cq.match_us", op_total, &out);
  AddSpanMetric(stats, "views.apply", "views.apply_us", op_total, &out);
  AddSpanMetric(stats, "chase.view_inverse", "chase.view_inverse_us", op_total, &out);
  AddSpanMetric(stats, "rewrite.to_query", "rewrite.to_query_us", op_total, &out);
  out.metrics["decide.glue_us.p50"] = {Median(glue_us), "us"};
  out.metrics["decide.glue_us.share"] = {glue_total / op_total, "ratio"};
  const double n = kCountOps;
  out.metrics["cq.hom.attempts_per_op"] = {counts["attempts"] / n, "count"};
  out.metrics["cq.hom.match_ratio"] = {
      counts["attempts"] > 0 ? counts["matches"] / counts["attempts"] : 0, "ratio"};
  out.metrics["chase.facts_added_per_op"] = {counts["facts"] / n, "count"};
  out.metrics["chase.tuples_chased_per_op"] = {counts["chased"] / n, "count"};
  out.metrics["determinacy.determined_share"] = {counts["determined"] / n, "ratio"};
  double plain_tput = static_cast<double>(plain.ops) / static_cast<double>(plain.wall_ns);
  double traced_tput = static_cast<double>(traced.ops) / static_cast<double>(traced.wall_ns);
  out.metrics["trace.overhead"] = {plain_tput / traced_tput - 1, "ratio"};

  std::string error;
  std::string path = args.work_dir + "/decide.trace.jsonl";
  if (!WriteTraceJsonl(path, {&log}, epoch, &error)) out.Fail("trace: " + error);
  WriteTraceSummary(args, "decide", digest, out);
  return out;
}

}  // namespace perfbench
