#include "introspect/health.hpp"

#include <gtest/gtest.h>

#include "introspect/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/runtime.hpp"
#include "util/ansi.hpp"
#include "util/json.hpp"

namespace npat::introspect {
namespace {

TEST(HistogramQuantile, EmptyAndDegenerateCases) {
  obs::EnabledGuard on(true);
  obs::Registry registry;
  obs::Histogram& h = registry.histogram("npat_test_q", {10.0, 100.0});
  EXPECT_DOUBLE_EQ(histogram_quantile_estimate(h, 0.99).value, 0.0);  // no observations
  h.observe(5.0);
  // q=0 pins to the winning bucket's lower edge (0 for the first bucket).
  EXPECT_DOUBLE_EQ(histogram_quantile_estimate(h, 0.0).value, 0.0);
}

TEST(HistogramQuantile, InterpolatesInsideTheWinningBucket) {
  obs::EnabledGuard on(true);
  obs::Registry registry;
  obs::Histogram& h = registry.histogram("npat_test_q", {10.0, 100.0, 1000.0});
  // 8 observations in (10, 100], 2 in (100, 1000].
  for (int i = 0; i < 8; ++i) h.observe(50.0);
  for (int i = 0; i < 2; ++i) h.observe(500.0);
  // Median: rank 5 of 10 lands in the (10, 100] bucket, 5/8ths through.
  EXPECT_DOUBLE_EQ(histogram_quantile_estimate(h, 0.5).value, 10.0 + 90.0 * (5.0 / 8.0));
  // p90: rank 9 lands in (100, 1000], 1/2 through.
  EXPECT_DOUBLE_EQ(histogram_quantile_estimate(h, 0.9).value, 100.0 + 900.0 * (1.0 / 2.0));
}

TEST(HistogramQuantile, OverflowBucketClampsToLastFiniteBound) {
  obs::EnabledGuard on(true);
  obs::Registry registry;
  obs::Histogram& h = registry.histogram("npat_test_q", {10.0});
  h.observe(5.0);
  h.observe(1e9);  // +Inf bucket
  EXPECT_DOUBLE_EQ(histogram_quantile_estimate(h, 0.99).value, 10.0);
}

TEST(HistogramQuantile, EstimateFlagsTheOverflowBucket) {
  obs::EnabledGuard on(true);
  obs::Registry registry;
  obs::Histogram& h = registry.histogram("npat_test_q", {10.0, 100.0});
  h.observe(5.0);
  h.observe(1e9);
  // The p99 crossing lands in +Inf: the clamped value is only a floor,
  // and the estimate must say so instead of posing as a measurement.
  const QuantileEstimate blown = histogram_quantile_estimate(h, 0.99);
  EXPECT_DOUBLE_EQ(blown.value, 100.0);
  EXPECT_TRUE(blown.overflow);
  // The median crossing is in-bounds: no overflow flag.
  const QuantileEstimate median = histogram_quantile_estimate(h, 0.25);
  EXPECT_FALSE(median.overflow);
  // Empty histogram: zero value, no overflow.
  obs::Histogram& empty = registry.histogram("npat_test_q_empty", {10.0});
  EXPECT_FALSE(histogram_quantile_estimate(empty, 0.99).overflow);
}

HealthRow demo_row() {
  HealthRow row;
  row.host = "alpha";
  row.supervised = true;
  row.liveness = "live";
  row.pipeline.frames = 120;
  row.pipeline.stamped_frames = 30;
  row.pipeline.ingest_observations = 30;
  row.pipeline.ingest_sum = 3000.0;
  row.pipeline.ingest_max = 400;
  row.pipeline.ingest_p99 = 380.0;
  row.pipeline.reorder_observations = 120;
  row.pipeline.reorder_sum = 600.0;
  row.pipeline.pending_depth = 2;
  row.pipeline.frames_per_mcycle = 12.5;
  row.delivered = 120;
  row.dropped = 3;
  row.resyncs = 1;
  return row;
}

TEST(RenderHealth, ShowsPerProbePipelineColumns) {
  obs::EnabledGuard on(true);
  util::AnsiGuard plain(false);
  const std::string pane = render_health({demo_row()}, 1000000, {.title = "test-health"});
  EXPECT_NE(pane.find("test-health"), std::string::npos);
  EXPECT_NE(pane.find("probes=1"), std::string::npos);
  EXPECT_NE(pane.find("frames=120 (30 stamped)"), std::string::npos);
  EXPECT_NE(pane.find("damage=3"), std::string::npos);
  // The table: identity, state, rate, latency and damage columns.
  for (const char* header : {"Host", "State", "Frames", "fr/Mcy", "Lat mean", "Lat p99",
                             "Dwell", "Pend", "Drop", "Rsync"}) {
    EXPECT_NE(pane.find(header), std::string::npos) << header;
  }
  EXPECT_NE(pane.find("alpha"), std::string::npos);
  EXPECT_NE(pane.find("live"), std::string::npos);
  EXPECT_NE(pane.find("12.5"), std::string::npos);  // frames per Mcycle
  EXPECT_NE(pane.find("100"), std::string::npos);   // ingest mean 3000/30
}

TEST(RenderHealth, UnmeasuredLatencyRendersAsDash) {
  obs::EnabledGuard on(true);
  util::AnsiGuard plain(false);
  HealthRow row;
  row.host = "bare";
  row.liveness = "live";
  row.pipeline.frames = 4;
  const std::string pane = render_health({row}, 100);
  // An unsupervised (or not-yet-stamped) probe has no latency estimate:
  // the pane says so instead of rendering a fake zero.
  EXPECT_NE(pane.find(" - "), std::string::npos);
}

TEST(RenderHealth, OverflowedP99RendersAsFloorNotMeasurement) {
  obs::EnabledGuard on(true);
  util::AnsiGuard plain(false);
  HealthRow row = demo_row();
  row.pipeline.ingest_p99 = 10000000.0;  // the largest finite bucket bound
  row.pipeline.ingest_p99_overflow = true;
  const std::string pane = render_health({row}, 1000000);
  // A blown-out tail is a floor: ">=bound", never a bare number that
  // could be mistaken for a bucketed estimate.
  EXPECT_NE(pane.find(">=10 M"), std::string::npos);
  row.pipeline.ingest_p99_overflow = false;
  const std::string in_bounds = render_health({row}, 1000000);
  EXPECT_EQ(in_bounds.find(">="), std::string::npos);
}

TEST(RenderHealth, IsByteStableForFixedInputs) {
  obs::EnabledGuard on(true);
  util::AnsiGuard plain(false);
  const std::string a = render_health({demo_row()}, 500);
  const std::string b = render_health({demo_row()}, 500);
  EXPECT_EQ(a, b);
}

TEST(SelfMetrics, PrometheusGolden) {
  obs::EnabledGuard on(true);
  obs::Registry registry;
  registry.counter("npat_demo_total", "Demo things").add(2);
  FlightRecorder recorder(8);
  recorder.record(FlightKind::kResync, 1, "alpha", "storm", /*value=*/3);
  recorder.record(FlightKind::kDial, 2, "alpha", "epoch=1");

  // Full golden: the exposition must stay byte-stable — dashboards and the
  // CI scrape both parse it.
  const std::string expected =
      "# HELP npat_demo_total Demo things\n"
      "# TYPE npat_demo_total counter\n"
      "npat_demo_total 2\n"
      "# HELP npat_flight_events_total Flight-recorder occurrences by event kind\n"
      "# TYPE npat_flight_events_total counter\n"
      "npat_flight_events_total{kind=\"resync\"} 3\n"
      "npat_flight_events_total{kind=\"frame_drop\"} 0\n"
      "npat_flight_events_total{kind=\"truncation\"} 0\n"
      "npat_flight_events_total{kind=\"unexpected_frame\"} 0\n"
      "npat_flight_events_total{kind=\"epoch_reset\"} 0\n"
      "npat_flight_events_total{kind=\"replay_eviction\"} 0\n"
      "npat_flight_events_total{kind=\"orphan_held\"} 0\n"
      "npat_flight_events_total{kind=\"orphan_attributed\"} 0\n"
      "npat_flight_events_total{kind=\"alert_raise\"} 0\n"
      "npat_flight_events_total{kind=\"alert_clear\"} 0\n"
      "npat_flight_events_total{kind=\"reattach\"} 0\n"
      "npat_flight_events_total{kind=\"dial\"} 1\n"
      "npat_flight_events_total{kind=\"reconnect\"} 0\n"
      "npat_flight_events_total{kind=\"liveness_change\"} 0\n"
      "npat_flight_events_total{kind=\"note\"} 0\n"
      "# HELP npat_flight_ring_recorded_total Events recorded into the flight ring\n"
      "# TYPE npat_flight_ring_recorded_total counter\n"
      "npat_flight_ring_recorded_total 2\n"
      "# HELP npat_flight_ring_evicted_total Events evicted by the ring's capacity bound\n"
      "# TYPE npat_flight_ring_evicted_total counter\n"
      "npat_flight_ring_evicted_total 0\n";
  EXPECT_EQ(self_metrics_prometheus(registry, recorder), expected);
}

TEST(SelfMetrics, PrometheusFoldsLeIntoLabeledHistogramSeries) {
  obs::EnabledGuard on(true);
  obs::Registry registry;
  auto& histogram = registry.histogram(
      obs::labeled_name("npat_introspect_ingest_latency_cycles", {{"host", "alpha"}}),
      {10.0, 100.0}, "Hop latency");
  histogram.observe(5.0);
  histogram.observe(50.0);
  const std::string text = self_metrics_prometheus(registry, FlightRecorder(1));
  // `le` joins the existing label set; _sum/_count keep the labels after the
  // suffix. Anything else is rejected by a Prometheus scraper.
  EXPECT_NE(text.find("npat_introspect_ingest_latency_cycles_bucket"
                      "{host=\"alpha\",le=\"10\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("npat_introspect_ingest_latency_cycles_bucket"
                      "{host=\"alpha\",le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("npat_introspect_ingest_latency_cycles_sum{host=\"alpha\"} 55\n"),
            std::string::npos);
  EXPECT_NE(text.find("npat_introspect_ingest_latency_cycles_count{host=\"alpha\"} 2\n"),
            std::string::npos);
  EXPECT_EQ(text.find("}_bucket"), std::string::npos);
}

TEST(SelfMetrics, PrometheusEscapesLabelValues) {
  obs::EnabledGuard on(true);
  obs::Registry registry;
  registry.gauge(obs::labeled_name("npat_introspect_replay_depth", {{"host", "al\"pha\\1"}}))
      .set(4.0);
  const std::string text = self_metrics_prometheus(registry, FlightRecorder(1));
  EXPECT_NE(text.find("npat_introspect_replay_depth{host=\"al\\\"pha\\\\1\"} 4\n"),
            std::string::npos);
}

TEST(SelfMetrics, JsonGolden) {
  obs::EnabledGuard on(true);
  obs::Registry registry;
  registry.counter("npat_demo_total", "Demo things").add(2);
  FlightRecorder recorder(8);
  recorder.record(FlightKind::kResync, 1, "alpha", "storm", /*value=*/3);
  recorder.record(FlightKind::kDial, 2, "alpha", "epoch=1");

  EXPECT_EQ(self_metrics_json(registry, recorder).dump(),
            "{\"flight\":{\"capacity\":8,\"evicted\":0,\"recorded\":2,"
            "\"totals\":{\"dial\":1,\"resync\":3}},"
            "\"metrics\":{\"npat_demo_total\":"
            "{\"help\":\"Demo things\",\"type\":\"counter\",\"value\":2}}}");
}

}  // namespace
}  // namespace npat::introspect
