// Tests for the observability layer: counter registry and snapshot/delta
// semantics, histogram extremes, the trace ring buffer and JSONL sink
// (including span nesting order), the progress hook, and the hot-path
// macros.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/finite_search.h"
#include "gen/workloads.h"
#include "obs/explain.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/progress.h"
#include "obs/trace.h"

namespace vqdr {
namespace {

// --- counters and snapshots ------------------------------------------------

TEST(ObsMetrics, CounterRegistryHandsOutStableReferences) {
  obs::Counter& a = obs::GetCounter("test.obs.stable");
  obs::Counter& b = obs::GetCounter("test.obs.stable");
  EXPECT_EQ(&a, &b);
  std::uint64_t before = a.value();
  b.Add(3);
  EXPECT_EQ(a.value(), before + 3);
}

TEST(ObsMetrics, SnapshotDeltaReportsOnlyMovement) {
  obs::Counter& moved = obs::GetCounter("test.obs.delta.moved");
  obs::GetCounter("test.obs.delta.idle");  // registered but untouched

  obs::MetricsSnapshot before = obs::SnapshotMetrics();
  moved.Add(7);
  obs::MetricsSnapshot delta = obs::SnapshotDelta(before);

  EXPECT_EQ(delta.counters.count("test.obs.delta.idle"), 0u);
  ASSERT_EQ(delta.counters.count("test.obs.delta.moved"), 1u);
  EXPECT_EQ(delta.counters.at("test.obs.delta.moved"), 7u);
}

TEST(ObsMetrics, ResetZeroesButKeepsRegistration) {
  obs::Counter& c = obs::GetCounter("test.obs.reset");
  c.Add(5);
  obs::ResetMetrics();
  EXPECT_EQ(c.value(), 0u);
  // The registry entry survives the reset and still snapshots.
  obs::MetricsSnapshot snap = obs::SnapshotMetrics();
  ASSERT_EQ(snap.counters.count("test.obs.reset"), 1u);
  EXPECT_EQ(snap.counters.at("test.obs.reset"), 0u);
  c.Increment();
  EXPECT_EQ(c.value(), 1u);
}

TEST(ObsMetrics, HistogramTracksCountSumMinMax) {
  obs::Histogram& h = obs::GetHistogram("test.obs.hist");
  h.Reset();
  h.Record(10);
  h.Record(2);
  h.Record(40);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 52u);
  EXPECT_EQ(h.min(), 2u);
  EXPECT_EQ(h.max(), 40u);

  obs::MetricsSnapshot snap = obs::SnapshotMetrics();
  ASSERT_EQ(snap.histograms.count("test.obs.hist"), 1u);
  EXPECT_EQ(snap.histograms.at("test.obs.hist").max, 40u);
}

TEST(ObsMetrics, SnapshotRendersToStringAndJson) {
  obs::GetCounter("test.obs.render").Add(1);
  obs::MetricsSnapshot snap = obs::SnapshotMetrics();
  EXPECT_NE(snap.ToString().find("test.obs.render="), std::string::npos);
  std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"test.obs.render\":"), std::string::npos);
}

// --- macros ----------------------------------------------------------------

TEST(ObsMacros, EnabledMacrosBumpTheNamedCounter) {
  std::uint64_t before = obs::GetCounter("test.obs.macro.live").value();
  for (int i = 0; i < 4; ++i) {
    VQDR_COUNTER_INC("test.obs.macro.live");
  }
  VQDR_COUNTER_ADD("test.obs.macro.live", 6);
  EXPECT_EQ(obs::GetCounter("test.obs.macro.live").value(), before + 10);

  VQDR_HISTOGRAM_RECORD("test.obs.macro.hist", 17);
  EXPECT_GE(obs::GetHistogram("test.obs.macro.hist").count(), 1u);
}

// --- tracing ---------------------------------------------------------------

TEST(ObsTrace, RingBufferRecordsNestedSpansInnerFirst) {
  obs::EnableTracing();
  obs::DrainTraceEvents();  // discard anything earlier tests left behind
  {
    obs::TraceSpan outer("test.outer", 1);
    { obs::TraceSpan inner("test.inner"); }
  }
  obs::DisableTracing();

  std::vector<obs::TraceEvent> events = obs::DrainTraceEvents();
  ASSERT_EQ(events.size(), 2u);
  // Spans are recorded on completion: the inner span lands first, one level
  // deeper, and its lifetime nests inside the outer's.
  EXPECT_EQ(events[0].name, "test.inner");
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_FALSE(events[0].has_arg);
  EXPECT_EQ(events[1].name, "test.outer");
  EXPECT_EQ(events[1].depth, 0);
  EXPECT_TRUE(events[1].has_arg);
  EXPECT_EQ(events[1].arg, 1);
  EXPECT_GE(events[0].start_us, events[1].start_us);
  EXPECT_LE(events[0].start_us + events[0].dur_us,
            events[1].start_us + events[1].dur_us);
}

TEST(ObsTrace, JsonlSinkWritesOneWellFormedLinePerSpan) {
  std::string path = ::testing::TempDir() + "/vqdr_obs_trace_test.jsonl";
  ASSERT_TRUE(obs::SetTraceSinkPath(path));
  {
    obs::TraceSpan outer("sink.outer");
    { obs::TraceSpan inner("sink.inner", 42); }
  }
  obs::DisableTracing();
  obs::DrainTraceEvents();

  std::ifstream file(path);
  ASSERT_TRUE(file.is_open());
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(file, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  // Inner completes (and is written) before outer; depth disambiguates.
  EXPECT_EQ(lines[0].find("{\"name\":\"sink.inner\",\"arg\":42,"), 0u);
  EXPECT_NE(lines[0].find("\"depth\":1,"), std::string::npos);
  EXPECT_EQ(lines[1].find("{\"name\":\"sink.outer\","), 0u);
  EXPECT_NE(lines[1].find("\"depth\":0,"), std::string::npos);
  for (const std::string& l : lines) {
    EXPECT_EQ(l.front(), '{');
    EXPECT_EQ(l.back(), '}');
    EXPECT_NE(l.find("\"start_us\":"), std::string::npos);
    EXPECT_NE(l.find("\"dur_us\":"), std::string::npos);
    // Every span line carries the op-id join key (0 outside any operation).
    EXPECT_NE(l.find("\"op\":"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(ObsTrace, DisabledSpansRecordNothing) {
  obs::DisableTracing();
  obs::DrainTraceEvents();
  { VQDR_TRACE_SPAN("test.disabled"); }
  EXPECT_TRUE(obs::DrainTraceEvents().empty());
}

// --- progress --------------------------------------------------------------

TEST(ObsProgress, TickerThrottlesAndReportsPhase) {
  std::vector<std::uint64_t> reported;
  obs::SetProgressCallback([&](const obs::ProgressEvent& e) {
    EXPECT_STREQ(e.phase, "test.progress");
    EXPECT_EQ(e.total, 100u);
    reported.push_back(e.current);
    return true;
  });
  obs::ProgressTicker ticker("test.progress", /*stride=*/10, /*total=*/100);
  for (int i = 0; i < 35; ++i) EXPECT_TRUE(ticker.Tick());
  obs::ClearProgressCallback();
  EXPECT_EQ(reported, (std::vector<std::uint64_t>{10, 20, 30}));
  EXPECT_EQ(ticker.count(), 35u);
}

TEST(ObsProgress, TickerLatchesCancellation) {
  // Once the callback returns false, every later Tick() must keep
  // returning false without re-asking (and possibly re-granting) on the
  // next stride boundary.
  int calls = 0;
  obs::SetProgressCallback([&](const obs::ProgressEvent&) {
    ++calls;
    return false;
  });
  obs::ProgressTicker ticker("test.progress.latch", /*stride=*/4);
  EXPECT_TRUE(ticker.Tick());   // 1
  EXPECT_TRUE(ticker.Tick());   // 2
  EXPECT_TRUE(ticker.Tick());   // 3
  EXPECT_FALSE(ticker.Tick());  // 4: callback fires, cancels
  EXPECT_TRUE(ticker.cancelled());
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(ticker.Tick());
  obs::ClearProgressCallback();
  EXPECT_EQ(calls, 1);  // never re-asked after the latch
  EXPECT_EQ(ticker.count(), 4u);  // cancelled ticks are not counted as work
}

TEST(ObsProgress, CallbackCancellationStopsFiniteSearch) {
  // A callback that cancels immediately turns the (huge) search into a
  // budget-exhausted verdict after at most one stride of instances.
  obs::SetProgressCallback(
      [](const obs::ProgressEvent&) { return false; });
  ViewSet views = PathViews(2);
  EnumerationOptions options;
  options.domain_size = 4;  // 2^16 instances; cancellation must cut it short
  DeterminacySearchResult result = SearchDeterminacyCounterexample(
      views, Query::FromCq(ChainQuery(3)), Schema{{"E", 2}}, options);
  obs::ClearProgressCallback();
  EXPECT_EQ(result.verdict, SearchVerdict::kBudgetExhausted);
  EXPECT_LE(result.instances_examined, 1024u);
}

// --- histogram buckets -----------------------------------------------------

TEST(ObsMetrics, HistogramBucketIndexIsLog2) {
  EXPECT_EQ(obs::HistogramBucketIndex(0), 0u);
  EXPECT_EQ(obs::HistogramBucketIndex(1), 1u);   // [1,1]
  EXPECT_EQ(obs::HistogramBucketIndex(2), 2u);   // [2,3]
  EXPECT_EQ(obs::HistogramBucketIndex(3), 2u);
  EXPECT_EQ(obs::HistogramBucketIndex(4), 3u);   // [4,7]
  EXPECT_EQ(obs::HistogramBucketIndex(1023), 10u);
  EXPECT_EQ(obs::HistogramBucketIndex(1024), 11u);
  // Everything with 31+ significant bits lands in the overflow bucket.
  EXPECT_EQ(obs::HistogramBucketIndex(1ull << 40), 31u);
  EXPECT_EQ(obs::HistogramBucketIndex(~0ull), 31u);
  EXPECT_EQ(obs::HistogramBucketUpperBound(1), 1u);
  EXPECT_EQ(obs::HistogramBucketUpperBound(3), 7u);
  EXPECT_EQ(obs::HistogramBucketUpperBound(31), ~0ull);
}

TEST(ObsMetrics, HistogramBucketsWindowInDeltas) {
  obs::Histogram& h = obs::GetHistogram("test.obs.buckets");
  h.Reset();
  h.Record(1);
  h.Record(5);
  obs::MetricsSnapshot before = obs::SnapshotMetrics();
  h.Record(5);
  h.Record(6);
  obs::MetricsSnapshot delta = obs::SnapshotDelta(before);

  ASSERT_EQ(delta.histograms.count("test.obs.buckets"), 1u);
  const obs::HistogramSnapshot& hs = delta.histograms.at("test.obs.buckets");
  EXPECT_EQ(hs.count, 2u);
  // Only the two new values appear in the windowed buckets: both in [4,7].
  EXPECT_EQ(hs.buckets[obs::HistogramBucketIndex(5)], 2u);
  EXPECT_EQ(hs.buckets[obs::HistogramBucketIndex(1)], 0u);
}

TEST(ObsMetrics, ApproxQuantileWalksBuckets) {
  obs::Histogram& h = obs::GetHistogram("test.obs.quantile");
  h.Reset();
  for (int i = 0; i < 90; ++i) h.Record(3);    // bucket [2,3]
  for (int i = 0; i < 10; ++i) h.Record(100);  // bucket [64,127]
  obs::MetricsSnapshot snap = obs::SnapshotMetrics();
  const obs::HistogramSnapshot& hs = snap.histograms.at("test.obs.quantile");
  // p50 falls in the low bucket (upper bound 3); p95+ in the high one. The
  // quantile is clamped to the recorded max, so p99 reports 100, not 127.
  EXPECT_EQ(hs.ApproxQuantile(0.5), 3u);
  EXPECT_EQ(hs.ApproxQuantile(0.99), 100u);
  obs::HistogramSnapshot empty;
  EXPECT_EQ(empty.ApproxQuantile(0.5), 0u);
}

// --- Prometheus export -----------------------------------------------------

// A lint for the Prometheus text exposition format (version 0.0.4): every
// line is a comment (# HELP / # TYPE) or a sample `name{labels} value`;
// metric names match [a-zA-Z_:][a-zA-Z0-9_:]*; every sample's name was
// announced by a preceding # TYPE.
void LintPrometheusText(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::set<std::string> announced;
  int samples = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line[0] == '#') {
      std::istringstream comment(line);
      std::string hash, kind, name;
      comment >> hash >> kind >> name;
      EXPECT_TRUE(kind == "HELP" || kind == "TYPE") << line;
      if (kind == "TYPE") {
        std::string type;
        comment >> type;
        EXPECT_TRUE(type == "counter" || type == "histogram") << line;
        announced.insert(name);
      }
      continue;
    }
    std::size_t name_end = line.find_first_of("{ ");
    ASSERT_NE(name_end, std::string::npos) << line;
    std::string name = line.substr(0, name_end);
    ASSERT_FALSE(name.empty()) << line;
    EXPECT_TRUE(std::isalpha(static_cast<unsigned char>(name[0])) ||
                name[0] == '_' || name[0] == ':')
        << line;
    for (char c : name) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                  c == ':')
          << "bad metric name char in: " << line;
    }
    // A sample's base name (modulo _total/_bucket/_sum/_count suffixes)
    // must have been announced by a TYPE line.
    bool known = false;
    for (const std::string& base : announced) {
      if (name == base || name == base + "_total" ||
          name == base + "_bucket" || name == base + "_sum" ||
          name == base + "_count") {
        known = true;
      }
    }
    EXPECT_TRUE(known) << "sample without TYPE announcement: " << line;
    // The value is the last space-separated token and must parse.
    std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_FALSE(line.substr(space + 1).empty()) << line;
    ++samples;
  }
  EXPECT_GT(samples, 0);
}

TEST(ObsExport, PrometheusTextPassesFormatLint) {
  obs::ResetMetrics();
  obs::GetCounter("test.prom.counter").Add(42);
  obs::Histogram& h = obs::GetHistogram("test.prom.hist");
  h.Reset();
  h.Record(1);
  h.Record(9);
  h.Record(300);
  std::string text = obs::ExportPrometheusText();
  LintPrometheusText(text);

  // Counters gain the conventional _total suffix and the vqdr_ namespace;
  // dots sanitize to underscores.
  EXPECT_NE(text.find("vqdr_test_prom_counter_total 42"), std::string::npos);
  // Histogram buckets are cumulative with le="+Inf" last and equal to count.
  EXPECT_NE(text.find("vqdr_test_prom_hist_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("vqdr_test_prom_hist_count 3"), std::string::npos);
  EXPECT_NE(text.find("vqdr_test_prom_hist_sum 310"), std::string::npos);

  // Cumulative monotonicity across the bucket lines.
  std::istringstream in(text);
  std::string line;
  std::uint64_t prev = 0;
  int bucket_lines = 0;
  while (std::getline(in, line)) {
    if (line.rfind("vqdr_test_prom_hist_bucket", 0) != 0) continue;
    std::uint64_t value = std::stoull(line.substr(line.rfind(' ') + 1));
    EXPECT_GE(value, prev) << line;
    prev = value;
    ++bucket_lines;
  }
  EXPECT_GT(bucket_lines, 1);
}

// --- span-tree profiler ----------------------------------------------------

obs::TraceEvent MakeSpan(const char* name, std::uint64_t start_us,
                         std::uint64_t dur_us, std::uint32_t tid, int depth) {
  obs::TraceEvent e;
  e.name = name;
  e.start_us = start_us;
  e.dur_us = dur_us;
  e.tid = tid;
  e.depth = depth;
  return e;
}

TEST(ObsProfile, ReconstructsKnownNestingFromOutOfOrderSpans) {
  // Completion order (as a ring would record it): inner spans land before
  // the outers that contain them, and two threads interleave arbitrarily.
  //   tid 1:  analyze[0,100) > decide[10,40) > match[12,20)
  //                          > search[50,90)
  //   tid 2:  worker[0,80) > match[5,25)
  std::vector<obs::TraceEvent> events;
  events.push_back(MakeSpan("match", 12, 8, 1, 2));
  events.push_back(MakeSpan("match", 5, 20, 2, 1));
  events.push_back(MakeSpan("decide", 10, 30, 1, 1));
  events.push_back(MakeSpan("search", 50, 40, 1, 1));
  events.push_back(MakeSpan("worker", 0, 80, 2, 0));
  events.push_back(MakeSpan("analyze", 0, 100, 1, 0));

  obs::Profile profile = obs::BuildProfile(events);
  EXPECT_EQ(profile.span_count, 6u);
  EXPECT_EQ(profile.orphans, 0u);
  ASSERT_EQ(profile.roots.size(), 2u);

  // Roots sort by total time: analyze (100) before worker (80).
  const obs::ProfileNode& analyze = profile.roots[0];
  EXPECT_EQ(analyze.name, "analyze");
  EXPECT_EQ(analyze.total_us, 100u);
  EXPECT_EQ(analyze.self_us, 100u - 30u - 40u);
  ASSERT_EQ(analyze.children.size(), 2u);
  EXPECT_EQ(analyze.children[0].name, "search");  // 40us > decide's 30us
  const obs::ProfileNode& decide = analyze.children[1];
  EXPECT_EQ(decide.name, "decide");
  ASSERT_EQ(decide.children.size(), 1u);
  EXPECT_EQ(decide.children[0].name, "match");
  EXPECT_EQ(decide.children[0].count, 1u);

  const obs::ProfileNode& worker = profile.roots[1];
  EXPECT_EQ(worker.name, "worker");
  ASSERT_EQ(worker.children.size(), 1u);
  EXPECT_EQ(worker.children[0].name, "match");

  std::string rendered = obs::RenderProfileText(profile);
  EXPECT_NE(rendered.find("analyze"), std::string::npos);
  EXPECT_NE(rendered.find("6 spans"), std::string::npos);
}

TEST(ObsProfile, AggregatesRepeatedSpansAndCountsOrphans) {
  std::vector<obs::TraceEvent> events;
  events.push_back(MakeSpan("outer", 0, 50, 1, 0));
  for (int i = 0; i < 3; ++i) {
    events.push_back(MakeSpan("leaf", 5 + 10 * i, 5, 1, 1));
  }
  // A depth-2 span whose parent never completed (ring overflow): re-rooted.
  events.push_back(MakeSpan("stray", 100, 5, 1, 2));

  obs::Profile profile = obs::BuildProfile(events);
  EXPECT_EQ(profile.orphans, 1u);
  ASSERT_EQ(profile.roots.size(), 2u);
  const obs::ProfileNode& outer =
      profile.roots[0].name == "outer" ? profile.roots[0] : profile.roots[1];
  ASSERT_EQ(outer.children.size(), 1u);
  EXPECT_EQ(outer.children[0].name, "leaf");
  EXPECT_EQ(outer.children[0].count, 3u);
  EXPECT_EQ(outer.children[0].total_us, 15u);
  EXPECT_EQ(outer.self_us, 35u);
}

TEST(ObsProfile, ParsesJsonlSinkAndConvertsToChromeTrace) {
  std::string path = ::testing::TempDir() + "/vqdr_obs_profile_test.jsonl";
  ASSERT_TRUE(obs::SetTraceSinkPath(path));
  {
    obs::TraceSpan outer("profile.outer");
    { obs::TraceSpan inner("profile.inner", 7); }
  }
  obs::DisableTracing();
  obs::DrainTraceEvents();

  std::ifstream file(path);
  ASSERT_TRUE(file.is_open());
  std::string error;
  auto events = obs::ParseTraceJsonl(file, &error);
  ASSERT_TRUE(events.has_value()) << error;
  ASSERT_EQ(events->size(), 2u);
  EXPECT_EQ((*events)[0].name, "profile.inner");
  EXPECT_EQ((*events)[0].arg, 7);
  EXPECT_TRUE((*events)[0].has_arg);
  EXPECT_GT((*events)[0].tid, 0u);  // the sink carries the dense thread id
  EXPECT_EQ((*events)[0].tid, (*events)[1].tid);

  obs::Profile profile = obs::BuildProfile(*events);
  ASSERT_EQ(profile.roots.size(), 1u);
  EXPECT_EQ(profile.roots[0].name, "profile.outer");
  ASSERT_EQ(profile.roots[0].children.size(), 1u);
  EXPECT_EQ(profile.roots[0].children[0].name, "profile.inner");

  std::string chrome = obs::ChromeTraceJson(*events);
  EXPECT_NE(chrome.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"profile.inner\""), std::string::npos);

  std::ifstream file2(path);
  std::ostringstream converted;
  ASSERT_TRUE(obs::ConvertTraceJsonlToChrome(file2, converted, &error))
      << error;
  EXPECT_NE(converted.str().find("\"ph\":\"X\""), std::string::npos);
  std::remove(path.c_str());
}

// --- explain log -----------------------------------------------------------

obs::ExplainWitness MakeTestWitness() {
  // Witness for Q(x) :- E(x,y), E(y,x) mapping into {E(1,2), E(2,1)} with
  // head image (1): binding {x->1, y->2}.
  obs::ExplainWitness w;
  w.atoms.push_back(
      {"E", {obs::ExplainTerm::Var("x"), obs::ExplainTerm::Var("y")}});
  w.atoms.push_back(
      {"E", {obs::ExplainTerm::Var("y"), obs::ExplainTerm::Var("x")}});
  w.head = {obs::ExplainTerm::Var("x")};
  w.binding["x"] = 1;
  w.binding["y"] = 2;
  w.instance.push_back({"E", {1, 2}});
  w.instance.push_back({"E", {2, 1}});
  w.expected_head = {1};
  return w;
}

TEST(ObsExplain, WitnessVerifyAcceptsAndRejects) {
  obs::ExplainWitness good = MakeTestWitness();
  std::string error;
  EXPECT_TRUE(good.Verify(&error)) << error;

  obs::ExplainWitness bad_image = good;
  bad_image.binding["y"] = 3;  // E(1,3) is not a fact
  EXPECT_FALSE(bad_image.Verify(&error));
  EXPECT_FALSE(error.empty());

  obs::ExplainWitness bad_head = good;
  bad_head.expected_head = {2};
  EXPECT_FALSE(bad_head.Verify(&error));

  obs::ExplainWitness bad_diseq = good;
  bad_diseq.disequalities.push_back(
      {obs::ExplainTerm::Var("x"), obs::ExplainTerm::Var("x")});
  EXPECT_FALSE(bad_diseq.Verify(&error));
}

TEST(ObsExplain, LogJsonRoundTripPreservesEventsAndWitnesses) {
  obs::ExplainLog log;
  log.Note("setup", "two views over E/2");
  obs::ExplainEvent ev;
  ev.kind = obs::ExplainKind::kWitness;
  ev.label = "cq.sub";
  ev.stats["instance_facts"] = 2;
  ev.witness = MakeTestWitness();
  log.Append(std::move(ev));
  obs::ExplainEvent refute;
  refute.kind = obs::ExplainKind::kRefutation;
  refute.label = "cq.sub";
  refute.detail = "no preimage";
  refute.instance.push_back({"E", {1, 2}});
  log.Append(std::move(refute));

  std::string json = log.ToJson();
  std::string error;
  auto parsed = obs::ExplainLog::FromJson(json, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->size(), 3u);

  const auto& events = parsed->events();
  EXPECT_EQ(events[0].kind, obs::ExplainKind::kNote);
  EXPECT_EQ(events[0].label, "setup");
  EXPECT_EQ(events[1].kind, obs::ExplainKind::kWitness);
  EXPECT_EQ(events[1].stats.at("instance_facts"), 2);
  ASSERT_TRUE(events[1].witness.has_value());
  EXPECT_TRUE(events[1].witness->Verify());
  EXPECT_EQ(events[1].witness->binding.at("y"), 2);
  EXPECT_EQ(events[2].kind, obs::ExplainKind::kRefutation);
  ASSERT_EQ(events[2].instance.size(), 1u);
  EXPECT_EQ(events[2].instance[0], (obs::ExplainFact{"E", {1, 2}}));

  // Serialization is stable: a second round trip emits identical JSON.
  EXPECT_EQ(parsed->ToJson(), json);
}

TEST(ObsExplain, FromJsonRejectsGarbage) {
  EXPECT_FALSE(obs::ExplainLog::FromJson("not json").has_value());
  EXPECT_FALSE(obs::ExplainLog::FromJson("{\"events\":[]}").has_value());
  std::string error;
  EXPECT_FALSE(
      obs::ExplainLog::FromJson("{\"explain\":2,\"events\":[]}", &error)
          .has_value());
  EXPECT_FALSE(error.empty());
}

TEST(ObsProgress, SearchTallyIsFedFromObsCounter) {
  std::uint64_t before = obs::GetCounter("search.instances").value();
  ViewSet views = PathViews(2);
  EnumerationOptions options;
  options.domain_size = 1;
  DeterminacySearchResult result = SearchDeterminacyCounterexample(
      views, Query::FromCq(ChainQuery(2)), Schema{{"E", 2}}, options);
  std::uint64_t after = obs::GetCounter("search.instances").value();
  EXPECT_GT(result.instances_examined, 0u);
  EXPECT_EQ(after - before, result.instances_examined);
}

}  // namespace
}  // namespace vqdr
