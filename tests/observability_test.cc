// Tests for the observability layer: MetricsRegistry (counters, gauges,
// log-scale histograms, JSON snapshots), the scoped-span tracer (ring
// buffers, Chrome trace export) and RuntimeOptions::FromEnv. Labeled
// `observability` in ctest for selective runs.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/runtime_options.h"
#include "common/trace.h"

namespace resuformer {
namespace {

using metrics::MetricsRegistry;

TEST(MetricsCounterTest, ConcurrentIncrementsAreLossless) {
  metrics::Counter* counter =
      MetricsRegistry::Global().GetCounter("test.concurrent_counter");
  counter->Reset();
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter]() {
      for (int i = 0; i < kIncrements; ++i) counter->Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter->value(), int64_t{kThreads} * kIncrements);
}

TEST(MetricsCounterTest, PointersAreStableAcrossLookups) {
  metrics::Counter* first =
      MetricsRegistry::Global().GetCounter("test.stable_counter");
  metrics::Counter* second =
      MetricsRegistry::Global().GetCounter("test.stable_counter");
  EXPECT_EQ(first, second);
}

TEST(MetricsGaugeTest, SetAndAdd) {
  metrics::Gauge* gauge = MetricsRegistry::Global().GetGauge("test.gauge");
  gauge->Set(10);
  gauge->Add(5);
  gauge->Add(-12);
  EXPECT_EQ(gauge->value(), 3);
  gauge->Reset();
  EXPECT_EQ(gauge->value(), 0);
}

TEST(MetricsHistogramTest, BucketingIsLogScale) {
  metrics::Histogram* hist =
      MetricsRegistry::Global().GetHistogram("test.bucketing");
  hist->Reset();
  // Bucket 0: v <= 0. Bucket b >= 1: [2^(b-1), 2^b).
  hist->Record(-5);
  hist->Record(0);
  hist->Record(1);    // bucket 1: [1, 2)
  hist->Record(2);    // bucket 2: [2, 4)
  hist->Record(3);    // bucket 2
  hist->Record(4);    // bucket 3: [4, 8)
  hist->Record(1023);  // bucket 10: [512, 1024)
  hist->Record(1024);  // bucket 11: [1024, 2048)
  EXPECT_EQ(hist->bucket_count(0), 2);
  EXPECT_EQ(hist->bucket_count(1), 1);
  EXPECT_EQ(hist->bucket_count(2), 2);
  EXPECT_EQ(hist->bucket_count(3), 1);
  EXPECT_EQ(hist->bucket_count(10), 1);
  EXPECT_EQ(hist->bucket_count(11), 1);
  EXPECT_EQ(hist->count(), 8);
  EXPECT_EQ(hist->min(), -5);
  EXPECT_EQ(hist->max(), 1024);
  EXPECT_EQ(hist->sum(), -5 + 0 + 1 + 2 + 3 + 4 + 1023 + 1024);
}

TEST(MetricsHistogramTest, BucketUpperBounds) {
  EXPECT_EQ(metrics::Histogram::BucketUpperBound(0), 0);
  EXPECT_EQ(metrics::Histogram::BucketUpperBound(1), 1);
  EXPECT_EQ(metrics::Histogram::BucketUpperBound(2), 3);
  EXPECT_EQ(metrics::Histogram::BucketUpperBound(10), 1023);
}

TEST(MetricsHistogramTest, ConcurrentRecordsKeepCountAndSum) {
  metrics::Histogram* hist =
      MetricsRegistry::Global().GetHistogram("test.concurrent_histogram");
  hist->Reset();
  constexpr int kThreads = 4;
  constexpr int kRecords = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([hist]() {
      for (int i = 0; i < kRecords; ++i) hist->Record(7);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(hist->count(), int64_t{kThreads} * kRecords);
  EXPECT_EQ(hist->sum(), int64_t{kThreads} * kRecords * 7);
  EXPECT_EQ(hist->min(), 7);
  EXPECT_EQ(hist->max(), 7);
}

TEST(MetricsRegistryTest, SnapshotContainsRegisteredInstruments) {
  auto& registry = MetricsRegistry::Global();
  registry.GetCounter("test.snapshot_counter")->Reset();
  registry.GetCounter("test.snapshot_counter")->Increment(42);
  registry.GetGauge("test.snapshot_gauge")->Set(-3);
  metrics::Histogram* hist = registry.GetHistogram("test.snapshot_histogram");
  hist->Reset();
  hist->Record(100);

  const metrics::MetricsSnapshot snap = registry.Snapshot();
  bool found_counter = false, found_gauge = false, found_histogram = false;
  for (const auto& c : snap.counters) {
    if (c.name == "test.snapshot_counter") {
      found_counter = true;
      EXPECT_EQ(c.value, 42);
    }
  }
  for (const auto& g : snap.gauges) {
    if (g.name == "test.snapshot_gauge") {
      found_gauge = true;
      EXPECT_EQ(g.value, -3);
    }
  }
  for (const auto& h : snap.histograms) {
    if (h.name == "test.snapshot_histogram") {
      found_histogram = true;
      EXPECT_EQ(h.count, 1);
      EXPECT_EQ(h.sum, 100);
      ASSERT_EQ(h.buckets.size(), 1u);
      EXPECT_EQ(h.buckets[0].count, 1);
      EXPECT_GE(h.buckets[0].upper_bound, 100);
    }
  }
  EXPECT_TRUE(found_counter);
  EXPECT_TRUE(found_gauge);
  EXPECT_TRUE(found_histogram);
}

TEST(MetricsRegistryTest, SnapshotJsonIsWellFormed) {
  auto& registry = MetricsRegistry::Global();
  registry.GetCounter("test.json_counter")->Increment();
  registry.GetHistogram("test.json_histogram")->Record(5);
  const std::string json = registry.Snapshot().ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json_counter\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json_histogram\""), std::string::npos);
  // Balanced braces/brackets (no string values contain either).
  int braces = 0, brackets = 0;
  for (char c : json) {
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(MetricsRegistryTest, ResetSparesGauges) {
  auto& registry = MetricsRegistry::Global();
  registry.GetCounter("test.reset_counter")->Increment(9);
  registry.GetGauge("test.reset_gauge")->Set(11);
  registry.GetHistogram("test.reset_histogram")->Record(4);
  registry.ResetCountersAndHistograms();
  EXPECT_EQ(registry.GetCounter("test.reset_counter")->value(), 0);
  EXPECT_EQ(registry.GetHistogram("test.reset_histogram")->count(), 0);
  EXPECT_EQ(registry.GetGauge("test.reset_gauge")->value(), 11);
}

TEST(MetricsScopedTimerTest, RecordsOnlyWhenEnabled) {
  auto& registry = MetricsRegistry::Global();
  metrics::Histogram* hist = registry.GetHistogram("test.scoped_timer");
  hist->Reset();
  registry.SetEnabled(false);
  { metrics::ScopedTimerUs timer(hist); }
  EXPECT_EQ(hist->count(), 0);
  registry.SetEnabled(true);
  { metrics::ScopedTimerUs timer(hist); }
  EXPECT_EQ(hist->count(), 1);
  registry.SetEnabled(false);
}

// Tracer tests share the process-global recorder; each enables tracing
// against a clean slate and disables it on exit.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::TraceRecorder::Global().Reset();
    trace::TraceRecorder::Global().SetEnabled(true);
  }
  void TearDown() override {
    trace::TraceRecorder::Global().SetEnabled(false);
    trace::TraceRecorder::Global().Reset();
    trace::TraceRecorder::Global().SetBufferCapacity(8192);
  }
};

TEST_F(TraceTest, NestedSpansAreRecordedInnermostFirst) {
  {
    TRACE_SPAN("outer");
    {
      TRACE_SPAN("inner");
    }
  }
  const std::vector<trace::SpanRecord> spans =
      trace::TraceRecorder::Global().Collect();
  ASSERT_EQ(spans.size(), 2u);
  // Collect orders by start time: outer opened first.
  EXPECT_STREQ(spans[0].name, "outer");
  EXPECT_STREQ(spans[1].name, "inner");
  // The inner span nests inside the outer window.
  EXPECT_GE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_LE(spans[1].start_ns + spans[1].dur_ns,
            spans[0].start_ns + spans[0].dur_ns);
}

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  trace::TraceRecorder::Global().SetEnabled(false);
  {
    TRACE_SPAN("invisible");
  }
  EXPECT_TRUE(trace::TraceRecorder::Global().Collect().empty());
}

TEST_F(TraceTest, RingBufferKeepsNewestAndTalliesDropped) {
  trace::TraceRecorder::Global().SetBufferCapacity(16);
  for (int i = 0; i < 40; ++i) {
    TRACE_SPAN("wrap");
  }
  const std::vector<trace::SpanRecord> spans =
      trace::TraceRecorder::Global().Collect();
  EXPECT_EQ(spans.size(), 16u);
  EXPECT_EQ(trace::TraceRecorder::Global().dropped(), 24);
  // Retained spans are the newest: strictly increasing start times and the
  // last recorded span present.
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_GE(spans[i].start_ns, spans[i - 1].start_ns);
  }
}

TEST_F(TraceTest, ChromeJsonIsLoadable) {
  {
    TRACE_SPAN("span.a");
  }
  {
    TRACE_SPAN("span.b");
  }
  const std::string json = trace::TraceRecorder::Global().ToChromeJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json[json.find_last_not_of(" \n")], '}');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"span.a\""), std::string::npos);
  EXPECT_NE(json.find("\"span.b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 1"), std::string::npos);
  int braces = 0, brackets = 0;
  for (char c : json) {
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST_F(TraceTest, SpansFromMultipleThreadsGetDistinctTids) {
  {
    TRACE_SPAN("main.thread");
  }
  std::thread other([]() {
    TRACE_SPAN("other.thread");
  });
  other.join();
  const std::vector<trace::SpanRecord> spans =
      trace::TraceRecorder::Global().Collect();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_NE(spans[0].tid, spans[1].tid);
}

TEST_F(TraceTest, ResetDiscardsSpans) {
  {
    TRACE_SPAN("gone");
  }
  trace::TraceRecorder::Global().Reset();
  EXPECT_TRUE(trace::TraceRecorder::Global().Collect().empty());
  EXPECT_EQ(trace::TraceRecorder::Global().dropped(), 0);
}

TEST(RuntimeOptionsTest, DefaultsWhenEnvUnset) {
  unsetenv("RESUFORMER_THREADS");
  unsetenv("RESUFORMER_METRICS");
  unsetenv("RESUFORMER_TRACE");
  unsetenv("RESUFORMER_TRACE_CAPACITY");
  const RuntimeOptions options = RuntimeOptions::FromEnv();
  EXPECT_EQ(options.threads, 0);
  EXPECT_FALSE(options.enable_metrics);
  EXPECT_FALSE(options.enable_tracing);
  EXPECT_EQ(options.trace_buffer_capacity, 8192);
}

TEST(RuntimeOptionsTest, EnvOverridesApply) {
  setenv("RESUFORMER_THREADS", "3", 1);
  setenv("RESUFORMER_METRICS", "1", 1);
  setenv("RESUFORMER_TRACE", "true", 1);
  setenv("RESUFORMER_TRACE_CAPACITY", "1024", 1);
  const RuntimeOptions options = RuntimeOptions::FromEnv();
  EXPECT_EQ(options.threads, 3);
  EXPECT_TRUE(options.enable_metrics);
  EXPECT_TRUE(options.enable_tracing);
  EXPECT_EQ(options.trace_buffer_capacity, 1024);
  unsetenv("RESUFORMER_THREADS");
  unsetenv("RESUFORMER_METRICS");
  unsetenv("RESUFORMER_TRACE");
  unsetenv("RESUFORMER_TRACE_CAPACITY");
}

TEST(RuntimeOptionsTest, OutOfRangeEnvValuesAreIgnored) {
  setenv("RESUFORMER_THREADS", "-2", 1);
  setenv("RESUFORMER_TRACE_CAPACITY", "4", 1);  // below the minimum of 16
  const RuntimeOptions options = RuntimeOptions::FromEnv();
  EXPECT_EQ(options.threads, 0);
  EXPECT_EQ(options.trace_buffer_capacity, 8192);
  unsetenv("RESUFORMER_THREADS");
  unsetenv("RESUFORMER_TRACE_CAPACITY");
}

TEST(RuntimeOptionsTest, TraceCapacityIsStrictlyParsed) {
  // RESUFORMER_TRACE_CAPACITY is a strict knob: a set-but-bad value still
  // falls back (above) but surfaces an InvalidArgument naming the variable
  // when the caller asks.
  setenv("RESUFORMER_TRACE_CAPACITY", "lots", 1);
  Status strict = Status::OK();
  const RuntimeOptions options = RuntimeOptions::FromEnv(&strict);
  EXPECT_EQ(options.trace_buffer_capacity, 8192);
  EXPECT_FALSE(strict.ok());
  EXPECT_NE(strict.ToString().find("RESUFORMER_TRACE_CAPACITY"),
            std::string::npos);
  unsetenv("RESUFORMER_TRACE_CAPACITY");

  setenv("RESUFORMER_TRACE_CAPACITY", "4", 1);  // below the minimum of 16
  strict = Status::OK();
  (void)RuntimeOptions::FromEnv(&strict);
  EXPECT_FALSE(strict.ok());
  EXPECT_NE(strict.ToString().find("RESUFORMER_TRACE_CAPACITY"),
            std::string::npos);
  unsetenv("RESUFORMER_TRACE_CAPACITY");

  setenv("RESUFORMER_TRACE_CAPACITY", "1024", 1);
  strict = Status::OK();
  const RuntimeOptions good = RuntimeOptions::FromEnv(&strict);
  EXPECT_TRUE(strict.ok());
  EXPECT_EQ(good.trace_buffer_capacity, 1024);
  unsetenv("RESUFORMER_TRACE_CAPACITY");
}

TEST(RuntimeOptionsTest, ServeObservabilityKnobsParse) {
  setenv("RESUFORMER_SERVE_STATS_WINDOW_MS", "500", 1);
  setenv("RESUFORMER_SERVE_SLOW_TRACE_US", "2500", 1);
  setenv("RESUFORMER_SERVE_SLOW_TRACE_DIR", "/tmp/my-traces", 1);
  Status strict = Status::OK();
  const RuntimeOptions options = RuntimeOptions::FromEnv(&strict);
  EXPECT_TRUE(strict.ok()) << strict.ToString();
  EXPECT_EQ(options.serve_stats_window_ms, 500);
  EXPECT_EQ(options.serve_slow_trace_us, 2500);
  EXPECT_EQ(options.serve_slow_trace_dir, "/tmp/my-traces");
  unsetenv("RESUFORMER_SERVE_STATS_WINDOW_MS");
  unsetenv("RESUFORMER_SERVE_SLOW_TRACE_US");
  unsetenv("RESUFORMER_SERVE_SLOW_TRACE_DIR");
}

// ---------------------------------------------------------------------------
// ApproxPercentile boundary contract (see the doc block in metrics.h).

TEST(MetricsPercentileTest, EmptyHistogramIsZeroEverywhere) {
  metrics::Histogram* hist =
      MetricsRegistry::Global().GetHistogram("test.pct_empty");
  hist->Reset();
  EXPECT_EQ(hist->ApproxPercentile(0.0), 0);
  EXPECT_EQ(hist->ApproxPercentile(0.5), 0);
  EXPECT_EQ(hist->ApproxPercentile(1.0), 0);
}

TEST(MetricsPercentileTest, SingleSampleAnswersItsBucketBoundForAllQ) {
  metrics::Histogram* hist =
      MetricsRegistry::Global().GetHistogram("test.pct_single");
  hist->Reset();
  hist->Record(100);  // bucket 7: [64, 128), bound 127
  EXPECT_EQ(hist->ApproxPercentile(0.0), 127);
  EXPECT_EQ(hist->ApproxPercentile(0.5), 127);
  EXPECT_EQ(hist->ApproxPercentile(0.99), 127);
  EXPECT_EQ(hist->ApproxPercentile(1.0), 127);
}

TEST(MetricsPercentileTest, QueriesOutsideUnitIntervalClamp) {
  metrics::Histogram* hist =
      MetricsRegistry::Global().GetHistogram("test.pct_clamp");
  hist->Reset();
  hist->Record(1);     // bucket 1, bound 1
  hist->Record(1000);  // bucket 10, bound 1023
  EXPECT_EQ(hist->ApproxPercentile(-0.5), 1);    // q<=0: first non-empty
  EXPECT_EQ(hist->ApproxPercentile(2.0), 1023);  // q>=1: last non-empty
  // NaN folds into the q>=1 case rather than invoking ceil-of-NaN UB.
  EXPECT_EQ(hist->ApproxPercentile(std::nan("")), 1023);
}

TEST(MetricsPercentileTest, AllSamplesInBucketZeroAnswerZero) {
  metrics::Histogram* hist =
      MetricsRegistry::Global().GetHistogram("test.pct_zero_bucket");
  hist->Reset();
  hist->Record(0);
  hist->Record(-7);
  EXPECT_EQ(hist->ApproxPercentile(0.5), 0);
  EXPECT_EQ(hist->ApproxPercentile(1.0), 0);
}

TEST(MetricsPercentileTest, MedianLandsInTheMiddleBucket) {
  metrics::Histogram* hist =
      MetricsRegistry::Global().GetHistogram("test.pct_median");
  hist->Reset();
  for (int i = 0; i < 100; ++i) hist->Record(10);    // bucket 4, bound 15
  for (int i = 0; i < 100; ++i) hist->Record(1000);  // bucket 10, bound 1023
  EXPECT_EQ(hist->ApproxPercentile(0.5), 15);
  EXPECT_EQ(hist->ApproxPercentile(0.99), 1023);
}

// ---------------------------------------------------------------------------
// RollingHistogram: windowed percentiles with explicit timestamps.

TEST(RollingHistogramTest, WindowMergesLiveEpochs) {
  // 4 epochs x 1s. Record into three consecutive epochs and read back.
  metrics::RollingHistogram rolling(4, 1'000'000'000);
  const int64_t t0 = 100'000'000'000;  // arbitrary epoch-aligned origin
  rolling.Record(10, t0);
  rolling.Record(20, t0 + 1'000'000'000);
  rolling.Record(1000, t0 + 2'000'000'000);
  const auto window = rolling.Window(t0 + 2'500'000'000);
  EXPECT_EQ(window.count, 3);
  EXPECT_EQ(window.sum, 1030);
  EXPECT_EQ(window.p50, 31);    // bucket of 20: [16, 32)
  EXPECT_EQ(window.p99, 1023);  // bucket of 1000: [512, 1024)
}

TEST(RollingHistogramTest, OldEpochsExpireFromTheWindow) {
  metrics::RollingHistogram rolling(4, 1'000'000'000);
  const int64_t t0 = 100'000'000'000;
  rolling.Record(500, t0);
  // Still visible one epoch later...
  EXPECT_EQ(rolling.Window(t0 + 1'000'000'000).count, 1);
  // ...gone once the window (4 epochs) has rolled past it.
  EXPECT_EQ(rolling.Window(t0 + 4'000'000'000).count, 0);
  EXPECT_EQ(rolling.Window(t0 + 4'000'000'000).p99, 0);
}

TEST(RollingHistogramTest, SlotReuseDropsStaleSamples) {
  // With 2 epochs, t0 and t0+2s share a ring slot: the newer epoch must
  // reset the slot rather than inherit the stale count.
  metrics::RollingHistogram rolling(2, 1'000'000'000);
  const int64_t t0 = 100'000'000'000;
  rolling.Record(7, t0);
  rolling.Record(9, t0 + 2'000'000'000);
  const auto window = rolling.Window(t0 + 2'000'000'000);
  EXPECT_EQ(window.count, 1);
  EXPECT_EQ(window.sum, 9);
}

TEST(RollingHistogramTest, ConcurrentRecordsWithinOneEpochAreLossless) {
  metrics::RollingHistogram rolling(4, 1'000'000'000);
  const int64_t t0 = 100'000'000'000;
  constexpr int kThreads = 4;
  constexpr int kRecords = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rolling, t0]() {
      // Same epoch for every record: no rotation race, so counts are exact.
      for (int i = 0; i < kRecords; ++i) rolling.Record(3, t0 + i);
    });
  }
  for (std::thread& t : threads) t.join();
  const auto window = rolling.Window(t0);
  EXPECT_EQ(window.count, int64_t{kThreads} * kRecords);
  EXPECT_EQ(window.sum, int64_t{kThreads} * kRecords * 3);
}

// ---------------------------------------------------------------------------
// Prometheus text exposition.

TEST(PrometheusTextTest, RendersCountersGaugesAndHistograms) {
  metrics::MetricsSnapshot snap;
  snap.counters.push_back({"serve.requests", 42});
  snap.gauges.push_back({"serve.queue_depth", 3});
  metrics::MetricsSnapshot::HistogramValue h;
  h.name = "serve.e2e_us";
  h.count = 3;
  h.sum = 1300;
  h.buckets.push_back({127, 2});
  h.buckets.push_back({1023, 1});
  snap.histograms.push_back(h);

  const std::string text = snap.ToPrometheusText();
  // Dotted names sanitize to underscores under the resuformer_ prefix.
  EXPECT_NE(text.find("resuformer_serve_requests 42"), std::string::npos);
  EXPECT_NE(text.find("# TYPE resuformer_serve_requests counter"),
            std::string::npos);
  EXPECT_NE(text.find("resuformer_serve_queue_depth 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE resuformer_serve_queue_depth gauge"),
            std::string::npos);
  // Histogram: cumulative buckets, +Inf, _sum, _count.
  EXPECT_NE(text.find("resuformer_serve_e2e_us_bucket{le=\"127\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("resuformer_serve_e2e_us_bucket{le=\"1023\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("resuformer_serve_e2e_us_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("resuformer_serve_e2e_us_sum 1300"), std::string::npos);
  EXPECT_NE(text.find("resuformer_serve_e2e_us_count 3"), std::string::npos);
  // Original registry name survives on the HELP line.
  EXPECT_NE(text.find(
                "# HELP resuformer_serve_requests resuformer metric "
                "serve.requests"),
            std::string::npos);
  // Every line is a comment or `name{labels} value`; the exposition ends
  // with a newline.
  EXPECT_EQ(text.back(), '\n');
}

TEST(PrometheusTextTest, HostileNamesAreSanitizedAndHelpEscaped) {
  metrics::MetricsSnapshot snap;
  snap.counters.push_back({"weird-name with\nnewline\\slash\"quote", 1});
  const std::string text = snap.ToPrometheusText();
  // Sample line: every hostile character became '_' (no raw newline can
  // break the exposition).
  EXPECT_NE(
      text.find("resuformer_weird_name_with_newline_slash_quote 1"),
      std::string::npos);
  // HELP line: backslash and newline escaped per the 0.0.4 spec.
  EXPECT_NE(text.find("weird-name with\\nnewline\\\\slash\"quote"),
            std::string::npos);
  // No line in the output starts mid-name (raw newline leak).
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    EXPECT_TRUE(line[0] == '#' || line.rfind("resuformer_", 0) == 0)
        << "unexpected line: " << line;
  }
}

TEST(PrometheusTextTest, GlobalSnapshotRoundTrips) {
  auto& registry = MetricsRegistry::Global();
  registry.GetCounter("test.prom_counter")->Reset();
  registry.GetCounter("test.prom_counter")->Increment(7);
  const std::string text = registry.Snapshot().ToPrometheusText();
  EXPECT_NE(text.find("resuformer_test_prom_counter 7"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Request-id span annotation + windowed collection.

TEST_F(TraceTest, SpanIdAnnotatesRecordsAndChromeArgs) {
  {
    TRACE_SPAN_ID("serve.request", 42);
  }
  {
    TRACE_SPAN("unannotated");
  }
  const std::vector<trace::SpanRecord> spans =
      trace::TraceRecorder::Global().Collect();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].request_id, 42);
  EXPECT_EQ(spans[1].request_id, 0);
  const std::string json = trace::ChromeTraceJson(spans);
  // Annotated span carries args.request_id; unannotated spans stay clean.
  EXPECT_NE(json.find("\"request_id\": 42"), std::string::npos);
  EXPECT_EQ(json.find("\"request_id\": 0"), std::string::npos);
}

TEST_F(TraceTest, CollectWindowKeepsOnlyOverlappingSpans) {
  {
    TRACE_SPAN("windowed");
  }
  const std::vector<trace::SpanRecord> all =
      trace::TraceRecorder::Global().Collect();
  ASSERT_EQ(all.size(), 1u);
  const int64_t start = all[0].start_ns;
  const int64_t end = all[0].start_ns + all[0].dur_ns;
  // Overlapping window keeps it; disjoint windows on both sides drop it.
  EXPECT_EQ(trace::TraceRecorder::Global().CollectWindow(start, end).size(),
            1u);
  EXPECT_TRUE(
      trace::TraceRecorder::Global().CollectWindow(end + 10, end + 20)
          .empty());
  EXPECT_TRUE(
      trace::TraceRecorder::Global().CollectWindow(start - 20, start - 10)
          .empty());
}

TEST_F(TraceTest, WriteChromeTraceJsonProducesLoadableFile) {
  {
    TRACE_SPAN_ID("exemplar.span", 9);
  }
  const std::string path =
      ::testing::TempDir() + "/observability_exemplar.json";
  const Status s = trace::WriteChromeTraceJson(
      path, trace::TraceRecorder::Global().Collect());
  ASSERT_TRUE(s.ok()) << s.ToString();
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"exemplar.span\""), std::string::npos);
  EXPECT_NE(json.find("\"request_id\": 9"), std::string::npos);
}

}  // namespace
}  // namespace resuformer
