// Unit tests for the telemetry subsystem: metric primitives, the registry
// and its snapshots, the deterministic JSON exporter, and the RAII trace
// span. The end-to-end determinism contract (byte-identical exports across
// thread counts) lives in session_test.cc.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/context.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace dar {
namespace telemetry {
namespace {

TEST(CounterTest, IncrementAccumulates) {
  Counter c(Unit::kCount);
  EXPECT_EQ(c.value(), 0);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42);
  EXPECT_EQ(c.unit(), Unit::kCount);
}

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  Counter c(Unit::kCount);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(GaugeTest, LastWriterWins) {
  Gauge g(Unit::kBytes);
  g.Set(12.5);
  g.Set(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
  EXPECT_EQ(g.unit(), Unit::kBytes);
}

TEST(HistogramTest, BucketsByInclusiveUpperBound) {
  Histogram h({1.0, 10.0, 100.0}, Unit::kCount);
  h.Record(0.5);
  h.Record(1.0);  // inclusive: lands in the first bucket
  h.Record(5.0);
  h.Record(1000.0);  // overflow bucket
  std::vector<int64_t> expect = {2, 1, 0, 1};
  EXPECT_EQ(h.bucket_counts(), expect);
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.sum(), 1006.5);
}

TEST(HistogramTest, LatencyBoundsAreAscending) {
  std::vector<double> bounds = Histogram::LatencyBounds();
  ASSERT_GE(bounds.size(), 2u);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
  EXPECT_GT(bounds.front(), 0.0);
}

TEST(RegistryTest, HandlesAreStableAndShared) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x");
  Counter* b = registry.GetCounter("x");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, registry.GetCounter("y"));
  // First registration wins the unit.
  Counter* c = registry.GetCounter("x", Unit::kBytes);
  EXPECT_EQ(c, a);
  EXPECT_EQ(c->unit(), Unit::kCount);
}

TEST(RegistryTest, SnapshotCopiesValuesSorted) {
  MetricsRegistry registry;
  registry.GetCounter("b.count")->Increment(2);
  registry.GetCounter("a.count")->Increment(1);
  registry.GetGauge("g", Unit::kSeconds)->Set(0.25);
  registry.GetHistogram("h", {1.0})->Record(0.5);
  Snapshot snap = registry.TakeSnapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters.begin()->first, "a.count");
  EXPECT_EQ(snap.CounterOr("b.count"), 2);
  EXPECT_EQ(snap.CounterOr("missing", -7), -7);
  EXPECT_DOUBLE_EQ(snap.GaugeOr("g"), 0.25);
  EXPECT_DOUBLE_EQ(snap.GaugeOr("missing", 3.5), 3.5);
  ASSERT_EQ(snap.histograms.count("h"), 1u);
  const Snapshot::HistogramValue& h = snap.histograms.at("h");
  EXPECT_EQ(h.counts, (std::vector<int64_t>{1, 0}));
  EXPECT_EQ(h.count, 1);
  // The snapshot is a copy: later recording does not affect it.
  registry.GetCounter("a.count")->Increment(10);
  EXPECT_EQ(snap.CounterOr("a.count"), 1);
}

TEST(RegistryTest, ResetDropsEverything) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("x");
  Gauge* gauge = registry.GetGauge("g");
  Histogram* hist = registry.GetHistogram("h", {1.0});
  counter->Increment(5);
  gauge->Set(2.0);
  hist->Record(0.5);
  registry.Reset();
  Snapshot snap = registry.TakeSnapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.histograms.empty());
  EXPECT_EQ(registry.GetCounter("x")->value(), 0);
  // Reset zeroes in place: a held handle stays valid, a lookup returns it,
  // and recording through it shows the metric again.
  EXPECT_EQ(registry.GetCounter("x"), counter);
  EXPECT_EQ(hist->count(), 0);
  EXPECT_EQ(hist->bucket_counts(), (std::vector<int64_t>{0, 0}));
  gauge->Set(1.0);
  EXPECT_EQ(registry.TakeSnapshot().GaugeOr("g", -1), 1.0);
}

TEST(JsonWriterTest, EscapesSpecialCharacters) {
  EXPECT_EQ(JsonWriter::Escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(JsonWriter::Escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonWriterTest, FormatDoubleRoundTripsAndHandlesNonFinite) {
  EXPECT_EQ(JsonWriter::FormatDouble(0.1), "0.1");
  EXPECT_EQ(JsonWriter::FormatDouble(2.0), "2");
  EXPECT_EQ(JsonWriter::FormatDouble(std::nan("")), "null");
  EXPECT_EQ(JsonWriter::FormatDouble(INFINITY), "null");
}

TEST(JsonWriterTest, BuildsNestedDocuments) {
  JsonWriter w;
  w.BeginObject();
  w.Key("a");
  w.BeginArray();
  w.Int(1);
  w.Int(2);
  w.EndArray();
  w.Key("b");
  w.String("x\"y");
  w.Key("c");
  w.Bool(true);
  w.EndObject();
  EXPECT_EQ(w.str(), R"({"a":[1,2],"b":"x\"y","c":true})");
}

TEST(JsonExporterTest, SortedKeysAndSchema) {
  MetricsRegistry registry;
  registry.GetCounter("zeta")->Increment(3);
  registry.GetCounter("alpha")->Increment(1);
  registry.GetGauge("mem", Unit::kBytes)->Set(64.0);
  registry.GetHistogram("lat", {0.5, 1.0})->Record(0.25);
  std::string json = JsonExporter().Export(registry.TakeSnapshot());
  EXPECT_LT(json.find("\"alpha\""), json.find("\"zeta\""));
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"unit\":\"bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"bounds\":[0.5,1]"), std::string::npos);
  EXPECT_NE(json.find("\"counts\":[1,0,0]"), std::string::npos);
  // Identical snapshots serialize to identical bytes.
  EXPECT_EQ(json, JsonExporter().Export(registry.TakeSnapshot()));
}

TEST(JsonExporterTest, DeterministicViewDropsTimeValuedMetrics) {
  MetricsRegistry registry;
  registry.GetCounter("events")->Increment();
  registry.GetGauge("elapsed", Unit::kSeconds)->Set(0.125);
  registry.GetHistogram("lat", Histogram::LatencyBounds())->Record(0.01);
  Snapshot snap = registry.TakeSnapshot();
  std::string full = JsonExporter().Export(snap);
  EXPECT_NE(full.find("\"elapsed\""), std::string::npos);
  EXPECT_NE(full.find("\"lat\""), std::string::npos);
  JsonExporterOptions options;
  options.include_timings = false;
  std::string deterministic = JsonExporter(options).Export(snap);
  EXPECT_EQ(deterministic.find("\"elapsed\""), std::string::npos);
  EXPECT_EQ(deterministic.find("\"lat\""), std::string::npos);
  EXPECT_NE(deterministic.find("\"events\""), std::string::npos);
}

TEST(TraceSpanTest, RecordsIntoSinksOnDestruction) {
  Histogram h(Histogram::LatencyBounds(), Unit::kSeconds);
  Gauge g(Unit::kSeconds);
  {
    TraceSpan span(&h, &g);
    EXPECT_GE(span.ElapsedSeconds(), 0.0);
  }
  EXPECT_EQ(h.count(), 1);
  EXPECT_GE(g.value(), 0.0);
  { TraceSpan no_sinks(nullptr); }  // must be a safe no-op
}

TEST(TelemetryContextTest, DisabledContextReturnsNull) {
  TelemetryContext disabled;
  EXPECT_FALSE(disabled.enabled());
  EXPECT_EQ(disabled.GetCounter("x"), nullptr);
  EXPECT_EQ(disabled.GetGauge("x"), nullptr);
  EXPECT_EQ(disabled.GetHistogram("x", {1.0}), nullptr);

  MetricsRegistry registry;
  TelemetryContext enabled(&registry);
  EXPECT_TRUE(enabled.enabled());
  ASSERT_NE(enabled.GetCounter("x"), nullptr);
  EXPECT_EQ(enabled.GetCounter("x"), registry.GetCounter("x"));
}

}  // namespace
}  // namespace telemetry
}  // namespace dar
