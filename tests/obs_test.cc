// Tests for the obs subsystem: the thread-local span rings (wraparound drop
// accounting, nesting depth, retroactive RecordSpan, disabled-guard
// inertness), the Chrome trace-event exporter (schema golden check), the
// metrics registry (pointer stability, label canonicalization, histogram
// quantiles, Prometheus exposition and JSON shape, ResetForTest), and the
// contract that matters most to the paper: tracing never perturbs a fit --
// the solver output is bit-identical with spans on and off.

#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "api/solver_registry.h"
#include "core/htdp.h"
#include "gtest/gtest.h"
#include "obs/chrome_trace.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace htdp {
namespace {

/// Every trace test runs with a clean, enabled collector and leaves tracing
/// off, the way library code finds it. Capacity is restored because
/// SetTraceCapacity only affects rings created after the call.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_capacity_ = obs::TraceCapacity();
    obs::ClearTrace();
    obs::SetTraceEnabled(true);
  }
  void TearDown() override {
    obs::SetTraceEnabled(false);
    obs::SetTraceCapacity(saved_capacity_);
    obs::ClearTrace();
  }

  std::size_t saved_capacity_ = 0;
};

/// Collected spans named `name`, across all thread rings.
std::vector<obs::Span> SpansNamed(const std::string& name) {
  std::vector<obs::Span> out;
  for (const obs::ThreadTrace& t : obs::CollectTrace()) {
    for (const obs::Span& s : t.spans) {
      if (s.name != nullptr && name == s.name) out.push_back(s);
    }
  }
  return out;
}

TEST_F(TraceTest, SpanRecordsMonotonicEdges) {
  {
    HTDP_TRACE_SPAN("obs.test.simple");
  }
  const std::vector<obs::Span> spans = SpansNamed("obs.test.simple");
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_LE(spans[0].start_ns, spans[0].end_ns);
  EXPECT_EQ(spans[0].depth, 0u);
}

TEST_F(TraceTest, NestedSpansStampIncreasingDepthAndCloseInnerFirst) {
  EXPECT_EQ(obs::CurrentSpanDepth(), 0u);
  {
    HTDP_TRACE_SPAN("obs.test.outer");
    EXPECT_EQ(obs::CurrentSpanDepth(), 1u);
    {
      HTDP_TRACE_SPAN("obs.test.inner");
      EXPECT_EQ(obs::CurrentSpanDepth(), 2u);
    }
    EXPECT_EQ(obs::CurrentSpanDepth(), 1u);
  }
  EXPECT_EQ(obs::CurrentSpanDepth(), 0u);

  const std::vector<obs::Span> outer = SpansNamed("obs.test.outer");
  const std::vector<obs::Span> inner = SpansNamed("obs.test.inner");
  ASSERT_EQ(outer.size(), 1u);
  ASSERT_EQ(inner.size(), 1u);
  EXPECT_EQ(outer[0].depth, 0u);
  EXPECT_EQ(inner[0].depth, 1u);
  // The inner span is enclosed by the outer one.
  EXPECT_GE(inner[0].start_ns, outer[0].start_ns);
  EXPECT_LE(inner[0].end_ns, outer[0].end_ns);

  // Spans record at close, so the ring holds inner before outer.
  for (const obs::ThreadTrace& t : obs::CollectTrace()) {
    std::size_t inner_at = t.spans.size();
    std::size_t outer_at = t.spans.size();
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      if (std::string(t.spans[i].name) == "obs.test.inner") inner_at = i;
      if (std::string(t.spans[i].name) == "obs.test.outer") outer_at = i;
    }
    if (inner_at < t.spans.size() && outer_at < t.spans.size()) {
      EXPECT_LT(inner_at, outer_at);
    }
  }
}

TEST_F(TraceTest, RingWraparoundKeepsNewestAndCountsDropped) {
  obs::SetTraceCapacity(8);
  // A fresh thread gets a fresh ring at the new capacity; 20 spans through
  // a ring of 8 must keep the newest 8 and account for the 12 evicted.
  std::thread recorder([] {
    for (int i = 0; i < 20; ++i) {
      HTDP_TRACE_SPAN("obs.test.wrap");
    }
  });
  recorder.join();

  std::uint64_t dropped = 0;
  std::vector<obs::Span> wrapped;
  for (const obs::ThreadTrace& t : obs::CollectTrace()) {
    bool mine = false;
    for (const obs::Span& s : t.spans) {
      if (s.name != nullptr && std::string(s.name) == "obs.test.wrap") {
        wrapped.push_back(s);
        mine = true;
      }
    }
    if (mine) dropped = t.dropped;
  }
  ASSERT_EQ(wrapped.size(), 8u);
  EXPECT_EQ(dropped, 12u);
  // Oldest -> newest: end timestamps never go backwards.
  for (std::size_t i = 1; i < wrapped.size(); ++i) {
    EXPECT_GE(wrapped[i].end_ns, wrapped[i - 1].end_ns);
  }
}

TEST_F(TraceTest, RecordSpanBackfillsFromForeignTimestamps) {
  const std::uint64_t start = obs::NowNanos();
  const std::uint64_t end = start + 1234;
  obs::RecordSpan("obs.test.retro", start, end);
  const std::vector<obs::Span> spans = SpansNamed("obs.test.retro");
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].start_ns, start);
  EXPECT_EQ(spans[0].end_ns, end);
}

TEST_F(TraceTest, GuardOpenedWhileDisabledStaysInert) {
  obs::SetTraceEnabled(false);
  {
    obs::SpanGuard guard("obs.test.inert");
    // Flipping tracing on mid-span must not produce a half-stamped record.
    obs::SetTraceEnabled(true);
  }
  EXPECT_TRUE(SpansNamed("obs.test.inert").empty());
}

TEST_F(TraceTest, ClearTraceEmptiesRingsAndDropCounters) {
  {
    HTDP_TRACE_SPAN("obs.test.cleared");
  }
  ASSERT_EQ(SpansNamed("obs.test.cleared").size(), 1u);
  obs::ClearTrace();
  EXPECT_TRUE(SpansNamed("obs.test.cleared").empty());
  for (const obs::ThreadTrace& t : obs::CollectTrace()) {
    EXPECT_EQ(t.dropped, 0u);
    EXPECT_TRUE(t.spans.empty());
  }
}

// --- Chrome trace exporter ------------------------------------------------

TEST_F(TraceTest, ChromeTraceMatchesGoldenSchema) {
  // A hand-built trace with exactly known numbers, so the serialized form
  // can be checked against the schema chrome://tracing and Perfetto parse:
  // "X" complete events with fractional-microsecond ts/dur, a thread_name
  // "M" metadata event, and a "C" counter event surfacing drops.
  std::vector<obs::ThreadTrace> threads(1);
  threads[0].tid = 7;
  threads[0].dropped = 3;
  threads[0].spans.push_back(
      obs::Span{"golden.span", /*start_ns=*/1500, /*end_ns=*/4750,
                /*depth=*/0});
  const std::string json = obs::SerializeChromeTrace(threads, 3);

  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json;
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"golden.span\""), std::string::npos);
  // 1500 ns -> 1.500 us, duration 3250 ns -> 3.250 us.
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\":3.250"), std::string::npos) << json;
  // Drops surface as a counter event.
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos) << json;
  EXPECT_NE(json.find("spans_dropped"), std::string::npos) << json;
  // The capture is tagged with its runtime config (the ISA is
  // host-dependent; the thread count is the one passed in).
  EXPECT_NE(json.find("\"otherData\":{\"simd\":\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"threads\":3}"), std::string::npos) << json;
  EXPECT_EQ(json.back(), '}');

  // Structural sanity without a JSON parser: brackets and quotes balance.
  int braces = 0;
  int squares = 0;
  std::size_t quotes = 0;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) ++quotes;
    if (quotes % 2 == 1) continue;  // inside a string literal
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++squares;
    if (c == ']') --squares;
    EXPECT_GE(braces, 0);
    EXPECT_GE(squares, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(squares, 0);
  EXPECT_EQ(quotes % 2, 0u);
}

TEST_F(TraceTest, ChromeTraceEscapesReservedJsonCharacters) {
  std::vector<obs::ThreadTrace> threads(1);
  threads[0].tid = 1;
  threads[0].spans.push_back(
      obs::Span{"quote\"back\\slash", 10, 20, 0});
  const std::string json = obs::SerializeChromeTrace(threads, 1);
  EXPECT_NE(json.find("quote\\\"back\\\\slash"), std::string::npos) << json;
}

TEST_F(TraceTest, DumpChromeTraceCarriesLiveSpans) {
  {
    HTDP_TRACE_SPAN("obs.test.dumped");
  }
  const std::string json = obs::DumpChromeTrace(1);
  EXPECT_NE(json.find("\"name\":\"obs.test.dumped\""), std::string::npos);
}

// --- Fit bit-identity -----------------------------------------------------

/// The observability layer must be a pure observer: a solver run traced is
/// bit-identical to the same run untraced (same seed, same everything).
TEST(ObsBitIdentityTest, TracedFitMatchesUntracedBitForBit) {
  Rng data_rng(23);
  SyntheticConfig config;
  config.n = 400;
  config.d = 10;
  const Vector w_star = MakeL1BallTarget(config.d, data_rng);
  const Dataset data = GenerateLinear(config, w_star, data_rng);
  const SquaredLoss loss;
  const L1Ball ball(config.d, 1.0);

  Problem problem;
  problem.loss = &loss;
  problem.data = &data;
  problem.constraint = &ball;

  SolverSpec spec;
  spec.budget = PrivacyBudget::Pure(1.0);
  spec.tau = 4.0;
  spec.step = 0.05;

  const Solver* solver = *SolverRegistry::Global().Find(kSolverAlg1DpFw);

  obs::SetTraceEnabled(false);
  Rng rng_off(77);
  const StatusOr<FitResult> untraced = solver->TryFit(problem, spec, rng_off);
  ASSERT_TRUE(untraced.ok()) << untraced.status().ToString();

  obs::SetTraceEnabled(true);
  Rng rng_on(77);
  const StatusOr<FitResult> traced = solver->TryFit(problem, spec, rng_on);
  obs::SetTraceEnabled(false);
  obs::ClearTrace();
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();

  ASSERT_EQ(traced->w.size(), untraced->w.size());
  for (std::size_t i = 0; i < untraced->w.size(); ++i) {
    EXPECT_EQ(traced->w[i], untraced->w[i]) << "component " << i;
  }
  EXPECT_EQ(traced->iterations, untraced->iterations);
}

// --- Metrics registry -----------------------------------------------------

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::MetricRegistry::Global().ResetForTest(); }
  void TearDown() override { obs::MetricRegistry::Global().ResetForTest(); }
};

TEST_F(MetricsTest, GetOrCreateReturnsStablePointers) {
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  obs::Counter* a = reg.GetCounter("obs_test_events_total", "help");
  obs::Counter* b = reg.GetCounter("obs_test_events_total", "help");
  EXPECT_EQ(a, b);
  a->Increment(3);
  EXPECT_EQ(b->Value(), 3u);

  // Distinct labels are distinct series; label order does not matter.
  obs::Counter* x = reg.GetCounter("obs_test_events_total", "help",
                                   {{"a", "1"}, {"b", "2"}});
  obs::Counter* y = reg.GetCounter("obs_test_events_total", "help",
                                   {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(x, y);
  EXPECT_NE(x, a);
}

TEST_F(MetricsTest, ResetForTestZeroesButKeepsPointersValid) {
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  obs::Counter* c = reg.GetCounter("obs_test_reset_total", "help");
  obs::Gauge* g = reg.GetGauge("obs_test_reset_gauge", "help");
  c->Increment(5);
  g->Set(2.5);
  reg.ResetForTest();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(g->Value(), 0.0);
  c->Increment();  // cached pointer still live
  EXPECT_EQ(c->Value(), 1u);
}

TEST_F(MetricsTest, HistogramQuantilesInterpolateWithinBuckets) {
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  obs::Histogram* h = reg.GetHistogram("obs_test_latency_seconds", "help",
                                       {0.1, 0.2, 0.4, 0.8});
  // 100 observations uniform in the (0.1, 0.2] bucket.
  for (int i = 0; i < 100; ++i) h->Observe(0.15);
  EXPECT_EQ(h->Count(), 100u);
  EXPECT_NEAR(h->Sum(), 15.0, 1e-9);
  const double p50 = h->Quantile(0.5);
  EXPECT_GT(p50, 0.1);
  EXPECT_LE(p50, 0.2);

  // An observation beyond every bound lands in +Inf and clamps quantiles
  // to the last finite bound.
  for (int i = 0; i < 1000; ++i) h->Observe(100.0);
  EXPECT_EQ(h->Quantile(0.99), 0.8);

  const std::vector<std::uint64_t> counts = h->BucketCounts();
  ASSERT_EQ(counts.size(), 5u);  // 4 bounds + +Inf
  EXPECT_EQ(counts[1], 100u);
  EXPECT_EQ(counts[4], 1000u);
}

TEST_F(MetricsTest, PrometheusExpositionMatchesFormat) {
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  reg.GetCounter("obs_test_requests_total", "Requests seen.",
                 {{"tenant", "acme"}})
      ->Increment(7);
  reg.GetGauge("obs_test_depth", "Queue depth.")->Set(3.0);
  obs::Histogram* h =
      reg.GetHistogram("obs_test_seconds", "Latency.", {0.5, 1.0});
  h->Observe(0.25);
  h->Observe(0.75);

  const std::string text = reg.ToPrometheus();
  EXPECT_NE(text.find("# HELP obs_test_requests_total Requests seen."),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE obs_test_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_requests_total{tenant=\"acme\"} 7"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE obs_test_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("obs_test_depth 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE obs_test_seconds histogram"),
            std::string::npos);
  // Cumulative buckets: le="0.5" holds 1, le="1" holds 2, +Inf holds 2.
  EXPECT_NE(text.find("obs_test_seconds_bucket{le=\"0.5\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("obs_test_seconds_bucket{le=\"1\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_seconds_sum 1"), std::string::npos);
  EXPECT_NE(text.find("obs_test_seconds_count 2"), std::string::npos);
  // Derived quantile gauges ride along for PromQL-free dashboards.
  EXPECT_NE(text.find("obs_test_seconds_p50"), std::string::npos);
  EXPECT_NE(text.find("obs_test_seconds_p99"), std::string::npos);
  // Exposition format requires a trailing newline on the last line.
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
}

TEST_F(MetricsTest, PrometheusEscapesLabelValues) {
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  reg.GetCounter("obs_test_escape_total", "help",
                 {{"tenant", "a\"b\\c\nd"}})
      ->Increment();
  const std::string text = reg.ToPrometheus();
  EXPECT_NE(text.find("tenant=\"a\\\"b\\\\c\\nd\""), std::string::npos)
      << text;
}

TEST_F(MetricsTest, JsonExportCarriesAllThreeKinds) {
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  reg.GetCounter("obs_test_json_total", "help")->Increment(2);
  reg.GetGauge("obs_test_json_gauge", "help")->Set(1.5);
  reg.GetHistogram("obs_test_json_seconds", "help", {1.0})->Observe(0.5);

  const std::string json = reg.ToJson();
  EXPECT_EQ(json.rfind("{", 0), 0u);
  EXPECT_NE(json.find("\"counters\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test_json_total\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test_json_gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test_json_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"+Inf\""), std::string::npos) << json;
}

TEST_F(MetricsTest, CountersAreCoherentUnderConcurrentIncrements) {
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  obs::Counter* c = reg.GetCounter("obs_test_race_total", "help");
  obs::Histogram* h =
      reg.GetHistogram("obs_test_race_seconds", "help", {0.5, 1.0});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
        h->Observe(0.25);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c->Value(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(h->Count(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_NEAR(h->Sum(), kThreads * kPerThread * 0.25, 1e-6);
}

}  // namespace
}  // namespace htdp
