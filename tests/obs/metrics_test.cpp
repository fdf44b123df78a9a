#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "obs/runtime.hpp"
#include "util/json.hpp"

namespace npat::obs {
namespace {

TEST(Counter, AccumulatesThroughTheRegistry) {
  EnabledGuard on(true);
  Registry registry;
  Counter& c = registry.counter("npat_test_events_total", "events");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(registry.counter_value("npat_test_events_total"), 42u);
}

TEST(Counter, HandleIsStableAcrossLookups) {
  Registry registry;
  Counter& a = registry.counter("npat_test_total");
  Counter& b = registry.counter("npat_test_total");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(registry.to_json().as_object().size(), 1u);
}

TEST(Gauge, StoresLastValue) {
  EnabledGuard on(true);
  Registry registry;
  Gauge& g = registry.gauge("npat_test_state");
  g.set(2.0);
  g.set(1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.0);
  EXPECT_DOUBLE_EQ(registry.gauge_value("npat_test_state"), 1.0);
}

TEST(Histogram, BucketsObservations) {
  EnabledGuard on(true);
  Registry registry;
  Histogram& h = registry.histogram("npat_test_us", {1.0, 10.0, 100.0});
  h.observe(0.5);   // <= 1
  h.observe(5.0);   // <= 10
  h.observe(5.5);   // <= 10
  h.observe(50.0);  // <= 100
  h.observe(500.0);  // +Inf
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);  // overflow bucket
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 561.0);
}

TEST(Registry, RemoveDropsTheSeriesAndItsExport) {
  EnabledGuard on(true);
  Registry registry;
  registry.counter("npat_test_keep_total", "kept").add(1);
  registry.gauge("npat_test_drop", "dropped").set(5.0);
  EXPECT_TRUE(registry.remove("npat_test_drop"));
  EXPECT_FALSE(registry.remove("npat_test_drop"));    // already gone
  EXPECT_FALSE(registry.remove("npat_test_absent"));  // never existed
  EXPECT_EQ(registry.to_json().as_object().size(), 1u);
  const std::string text = registry.prometheus_text();
  EXPECT_NE(text.find("npat_test_keep_total"), std::string::npos);
  EXPECT_EQ(text.find("npat_test_drop"), std::string::npos);
  // Re-registering after removal starts a fresh series.
  EXPECT_DOUBLE_EQ(registry.gauge("npat_test_drop").value(), 0.0);
}

TEST(Registry, KindMismatchThrows) {
  Registry registry;
  registry.counter("npat_test_total");
  EXPECT_ANY_THROW(registry.gauge("npat_test_total"));
}

TEST(Registry, HelpBackfillsButNeverSilentlyChanges) {
  Registry registry;
  // First registration with empty help, second with real help: the real
  // one wins (backfill), and re-registering with the same help is fine.
  registry.counter("npat_test_total");
  registry.counter("npat_test_total", "Things counted");
  registry.counter("npat_test_total", "Things counted");
  // An empty help on a later lookup never erases the documented one.
  registry.counter("npat_test_total");
  EXPECT_NE(registry.prometheus_text().find("# HELP npat_test_total Things counted\n"),
            std::string::npos);
  // Two call sites silently disagreeing about what a metric means is a
  // bug, not a preference: a *conflicting* non-empty help throws.
  EXPECT_ANY_THROW(registry.counter("npat_test_total", "Something else entirely"));
}

TEST(Histogram, NanObservationsAreDroppedAndCounted) {
  EnabledGuard on(true);
  Registry registry;
  Histogram& h = registry.histogram("npat_test_us", {1.0, 10.0});
  h.observe(0.5);
  h.observe(std::numeric_limits<double>::quiet_NaN());
  h.observe(5.0);
  h.observe(std::numeric_limits<double>::quiet_NaN());
  // NaN never reaches a bucket or the sum — it would poison every later
  // export — but it is not silent either.
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.sum(), 5.5);
  EXPECT_EQ(h.nan_observations(), 2u);

  const util::Json doc = registry.to_json();
  EXPECT_DOUBLE_EQ(doc.at("npat_test_us").at("nan_observations").as_number(), 2.0);
}

TEST(Labels, EscapingAndRendering) {
  EXPECT_EQ(escape_label_value("plain"), "plain");
  EXPECT_EQ(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(labeled_name("npat_test_total", {{"host", "alpha"}, {"mode", "x\"y"}}),
            "npat_test_total{host=\"alpha\",mode=\"x\\\"y\"}");
  // Labeled series built through the helper round-trip the registry and
  // render as one valid Prometheus sample line.
  EnabledGuard on(true);
  Registry registry;
  registry.counter(labeled_name("npat_test_total", {{"host", "al\"pha"}})).add(2);
  EXPECT_NE(registry.prometheus_text().find("npat_test_total{host=\"al\\\"pha\"} 2\n"),
            std::string::npos);
}

TEST(Registry, PrometheusHelpTextIsEscaped) {
  Registry registry;
  registry.counter("npat_test_total", "line one\nline \\two");
  // A newline inside help would split the exposition mid-comment; the
  // text format requires \n and \\ escapes in HELP lines.
  EXPECT_NE(registry.prometheus_text().find("# HELP npat_test_total line one\\nline \\\\two\n"),
            std::string::npos);
}

TEST(Registry, FindHistogramLooksUpWithoutRegistering) {
  Registry registry;
  EXPECT_EQ(registry.find_histogram("npat_test_us"), nullptr);
  Histogram& h = registry.histogram("npat_test_us", {1.0});
  EXPECT_EQ(registry.find_histogram("npat_test_us"), &h);
  // Wrong-kind lookups answer "no histogram" rather than throwing: the
  // caller is probing, not registering.
  registry.counter("npat_test_total");
  EXPECT_EQ(registry.find_histogram("npat_test_total"), nullptr);
}

TEST(Registry, DisabledRecordingIsANoOp) {
  Registry registry;
  Counter& c = registry.counter("npat_test_total");
  Gauge& g = registry.gauge("npat_test_state");
  Histogram& h = registry.histogram("npat_test_us", {1.0});
  {
    EnabledGuard off(false);
    c.add(7);
    g.set(3.0);
    h.observe(0.5);
  }
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(Registry, PrometheusTextFormat) {
  EnabledGuard on(true);
  Registry registry;
  registry.counter("npat_wire_crc_failures_total", "Frames rejected by CRC-32 check").add(3);
  registry.gauge("npat_alert_state{rule=\"remote_ratio\",subject=\"node0\"}",
                 "Current alert severity").set(2.0);
  const std::string text = registry.prometheus_text();
  EXPECT_NE(text.find("# HELP npat_alert_state Current alert severity\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE npat_alert_state gauge\n"), std::string::npos);
  EXPECT_NE(text.find("npat_alert_state{rule=\"remote_ratio\",subject=\"node0\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE npat_wire_crc_failures_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("npat_wire_crc_failures_total 3\n"), std::string::npos);
}

TEST(Registry, PrometheusLabeledSeriesShareOneHelpType) {
  EnabledGuard on(true);
  Registry registry;
  registry.counter("npat_alert_transitions_total{to=\"bad\"}", "Transitions").add(1);
  registry.counter("npat_alert_transitions_total{to=\"warn\"}", "Transitions").add(2);
  const std::string text = registry.prometheus_text();
  usize help_lines = 0;
  for (usize pos = 0; (pos = text.find("# HELP npat_alert_transitions_total", pos)) !=
                      std::string::npos;
       ++pos) {
    ++help_lines;
  }
  EXPECT_EQ(help_lines, 1u);
  EXPECT_NE(text.find("npat_alert_transitions_total{to=\"bad\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("npat_alert_transitions_total{to=\"warn\"} 2\n"), std::string::npos);
}

TEST(Registry, PrometheusHistogramIsCumulative) {
  EnabledGuard on(true);
  Registry registry;
  Histogram& h = registry.histogram("npat_test_us", {1.0, 10.0}, "Latencies");
  h.observe(0.5);
  h.observe(5.0);
  h.observe(50.0);
  const std::string text = registry.prometheus_text();
  EXPECT_NE(text.find("# TYPE npat_test_us histogram\n"), std::string::npos);
  EXPECT_NE(text.find("npat_test_us_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("npat_test_us_bucket{le=\"10\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("npat_test_us_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("npat_test_us_sum 55.5\n"), std::string::npos);
  EXPECT_NE(text.find("npat_test_us_count 3\n"), std::string::npos);
}

TEST(Registry, JsonExportRoundTrips) {
  EnabledGuard on(true);
  Registry registry;
  registry.counter("npat_test_total").add(5);
  registry.gauge("npat_test_state").set(1.5);
  registry.histogram("npat_test_us", {1.0}).observe(0.5);

  const util::Json doc = registry.to_json();
  const util::Json parsed = util::Json::parse(doc.dump());
  EXPECT_EQ(parsed.dump(), doc.dump());
  EXPECT_DOUBLE_EQ(parsed.at("npat_test_total").at("value").as_number(), 5.0);
  EXPECT_EQ(parsed.at("npat_test_total").at("type").as_string(), "counter");
  EXPECT_DOUBLE_EQ(parsed.at("npat_test_state").at("value").as_number(), 1.5);
  EXPECT_DOUBLE_EQ(parsed.at("npat_test_us").at("count").as_number(), 1.0);
}

}  // namespace
}  // namespace npat::obs
