// A command-line determinacy analyst: reads a scenario (schema, views,
// query) from a file or stdin and runs the full battery — chase decision,
// rewriting synthesis, bounded refutation search, monotonicity probe.
//
// Scenario format (line oriented; '#' comments):
//
//   schema R/2 P/1
//   view   V1(x) :- R(x, y)
//   view   V2(x) :- P(x)
//   query  Q(x) :- R(x, y), P(y)
//   bound  2
//
// `bound` is optional: the search domain size, a whole number in 1..4
// (default 2).
//
// Usage:  ./build/examples/determinacy_tool [flags] [scenario-file]
//         (no scenario file: reads stdin)
//
// Flags (all optional; see DESIGN.md §10):
//   --explain=PATH   write the decision-provenance log as JSON to PATH
//                    ('-' = stdout): chase levels, the witness homomorphism
//                    or refuting instance behind the verdict, memo probes.
//   --profile        record trace spans during the battery and print the
//                    aggregated span-tree profile afterwards.
//   --metrics        print the battery's counters/histograms in Prometheus
//                    text exposition format afterwards.
//   --ops            print the live-telemetry operation table afterwards
//                    (DESIGN.md §11): the battery's registry entry with its
//                    phase, heartbeats, budget state, and per-op counters.
//                    For in-flight inspection of a long run, use
//                    VQDR_OPS_DUMP_MS=<n> (periodic JSON dump to stderr) or
//                    VQDR_WATCHDOG_MS=<n> (stall reports) instead.

#include <charconv>
#include <fstream>
#include <iostream>
#include <sstream>

#include "base/string_util.h"
#include "core/report.h"
#include "cq/parser.h"
#include "obs/export.h"
#include "obs/profile.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "svc/service.h"

using namespace vqdr;

namespace {

int Fail(const std::string& message) {
  std::cerr << "error: " << message << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string explain_path;
  bool want_explain = false;
  bool want_profile = false;
  bool want_metrics = false;
  bool want_ops = false;
  std::string scenario_path;

  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--profile") {
      want_profile = true;
    } else if (arg == "--metrics") {
      want_metrics = true;
    } else if (arg == "--ops") {
      want_ops = true;
    } else if (arg == "--explain" || StartsWith(arg, "--explain=")) {
      want_explain = true;
      explain_path = arg == "--explain" ? "-" : std::string(arg.substr(10));
    } else if (StartsWith(arg, "--")) {
      return Fail("unknown flag " + std::string(arg) +
                  " (known: --explain[=PATH], --profile, --metrics, --ops)");
    } else if (scenario_path.empty()) {
      scenario_path = std::string(arg);
    } else {
      return Fail("at most one scenario file");
    }
  }

  std::istream* in = &std::cin;
  std::ifstream file;
  if (!scenario_path.empty()) {
    file.open(scenario_path);
    if (!file) return Fail("cannot open " + scenario_path);
    in = &file;
  }

  std::string schema;
  std::vector<std::string> view_rules;
  std::string query_rule;
  int bound = 2;

  std::string line;
  int line_no = 0;
  while (std::getline(*in, line)) {
    ++line_no;
    std::string_view text = StripWhitespace(line);
    if (text.empty() || text[0] == '#') continue;
    auto err = [&](const std::string& m) {
      return Fail("line " + std::to_string(line_no) + ": " + m);
    };

    if (StartsWith(text, "schema ")) {
      schema.append(text.substr(7)).push_back(' ');
    } else if (StartsWith(text, "view ")) {
      view_rules.emplace_back(text.substr(5));
    } else if (StartsWith(text, "query ")) {
      query_rule = std::string(text.substr(6));
    } else if (StartsWith(text, "bound ")) {
      // The whole value must be the number: "2x", "+2" and out-of-range
      // digits are refused, not read as a prefix.
      std::string_view value = StripWhitespace(text.substr(6));
      const char* end = value.data() + value.size();
      auto [stop, ec] = std::from_chars(value.data(), end, bound);
      if (ec != std::errc() || stop != end || bound < 1 || bound > 4) {
        return err("bound must be 1..4");
      }
    } else {
      return err("expected 'schema', 'view', 'query' or 'bound'");
    }
  }

  // The service's scenario builder: it rejects what the engines would abort
  // on (bad arities, unsafe rules, duplicate view names).
  svc::Scenario sc;
  if (Status s = svc::BuildScenario(schema, view_rules, query_rule, &sc);
      !s.ok()) {
    return Fail(s.message());
  }
  if (!sc.query.has_value()) return Fail("no query given");
  if (sc.views.empty()) return Fail("no views given");
  const NamePool& pool = sc.pool;
  const ViewSet& views = sc.views;
  const ConjunctiveQuery& query = *sc.query;

  std::cout << "schema: " << sc.schema.ToString() << "\nviews:\n"
            << views.ToString() << "query: " << CqToString(query, pool)
            << "\n\n";

  if (want_profile) {
    obs::DrainTraceEvents();  // start the profile window clean
    obs::EnableTracing();
  }
  obs::MetricsSnapshot metrics_before = obs::SnapshotMetrics();
  // Retain the battery's registry entry after it completes so --ops has
  // something to show for a finished run.
  if (want_ops) obs::SetKeepCompletedOps(16);

  DeterminacyAnalysisOptions opts;
  opts.search.domain_size = bound;
  opts.explain = want_explain;
  DeterminacyReport report = AnalyzeDeterminacy(views, query, sc.schema, opts);
  std::cout << report.Summary() << "\n";

  if (report.rewriting.has_value()) {
    std::cout << "\nrewriting: " << CqToString(*report.rewriting, pool)
              << "\n";
  }
  if (report.counterexample.has_value()) {
    std::cout << "\ncounterexample pair (equal view images, different "
                 "answers):\nD1:\n"
              << InstanceToString(report.counterexample->d1, pool) << "D2:\n"
              << InstanceToString(report.counterexample->d2, pool);
  }
  if (report.monotonicity_violation.has_value()) {
    std::cout << "\nmonotonicity violation of Q_V found (no monotonic "
                 "rewriting language suffices):\nD1:\n"
              << InstanceToString(report.monotonicity_violation->d1, pool)
              << "D2:\n"
              << InstanceToString(report.monotonicity_violation->d2, pool);
  }

  if (want_explain) {
    std::string json = report.explain.ToJson();
    if (explain_path == "-" || explain_path.empty()) {
      std::cout << "\n" << json << "\n";
    } else {
      std::ofstream out(explain_path, std::ios::trunc);
      if (!out) return Fail("cannot open " + explain_path);
      out << json << "\n";
      std::cout << "\nexplain log (" << report.explain.size()
                << " events) written to " << explain_path << "\n";
    }
  }

  if (want_profile) {
    obs::Profile profile = obs::BuildProfile(obs::DrainTraceEvents());
    std::cout << "\n[profile]\n" << obs::RenderProfileText(profile);
  }

  if (want_metrics) {
    std::cout << "\n[prometheus]\n"
              << obs::ExportPrometheusText(
                     obs::SnapshotDelta(metrics_before));
  }

  if (want_ops) {
    // Completed ops first (the battery just finished), then anything still
    // in flight (e.g. a background dump started via env).
    std::vector<obs::OpSnapshot> ops = obs::RecentCompletedOps();
    std::vector<obs::OpSnapshot> live = obs::SnapshotOps();
    ops.insert(ops.end(), live.begin(), live.end());
    std::cout << "\n[ops]\n" << obs::RenderOpsText(ops);
  }
  return 0;
}
