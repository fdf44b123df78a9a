#include "monitor/view.hpp"

#include <gtest/gtest.h>

#include "util/ansi.hpp"

namespace npat::monitor {
namespace {

WindowStats make_window() {
  WindowStats window;
  window.start = 1000000;
  window.end = 2000000;
  window.samples = 10;
  window.footprint_bytes = MiB(64);
  window.nodes.resize(2);

  NodeStats& node0 = window.nodes[0];
  node0.samples = 10;
  node0.instructions = 2000000;
  node0.cycles = 1000000;
  node0.local_dram = 9000;
  node0.remote_dram = 1000;
  node0.imc_reads = 12000;
  node0.imc_writes = 4000;
  node0.resident_bytes = MiB(32);

  NodeStats& node1 = window.nodes[1];
  node1.samples = 10;
  node1.instructions = 500000;
  node1.cycles = 1000000;
  node1.local_dram = 2000;
  node1.remote_dram = 7000;
  node1.remote_hitm = 1000;
  node1.qpi_flits = 50000;
  node1.resident_bytes = MiB(32);
  return window;
}

TEST(Sparkline, MapsValuesOntoRamp) {
  const std::vector<double> values = {0.0, 0.5, 1.0};
  const std::string line = sparkline(values, 8);
  ASSERT_EQ(line.size(), 3u);
  EXPECT_EQ(line.front(), ' ');  // zero
  EXPECT_EQ(line.back(), '@');   // full
  EXPECT_NE(line[1], ' ');
  EXPECT_NE(line[1], '@');
}

TEST(Sparkline, KeepsNewestWhenSeriesExceedsWidth) {
  std::vector<double> values(30, 0.0);
  values.back() = 1.0;
  const std::string line = sparkline(values, 10);
  ASSERT_EQ(line.size(), 10u);
  EXPECT_EQ(line.back(), '@');
}

TEST(Sparkline, ClampsOutOfRange) {
  const std::vector<double> values = {-3.0, 5.0};
  const std::string line = sparkline(values, 4);
  EXPECT_EQ(line, " @");
}

TEST(View, RendersSummaryAndPerNodeColumns) {
  util::AnsiGuard plain(false);
  const std::string frame = render_view(make_window(), {});

  // Summary line.
  EXPECT_NE(frame.find("npat-top"), std::string::npos);
  EXPECT_NE(frame.find("footprint=64 MiB"), std::string::npos);
  EXPECT_NE(frame.find("samples=10"), std::string::npos);

  // Required columns.
  for (const char* header : {"Node", "Local%", "Remote%", "HITM%", "IPC", "DRAM GB/s", "RSS"}) {
    EXPECT_NE(frame.find(header), std::string::npos) << header;
  }

  // Node 0: 90 % local, IPC 2; node 1: 80 % remote (10 % HITM), IPC 0.5.
  EXPECT_NE(frame.find(" 90.0%"), std::string::npos);
  EXPECT_NE(frame.find("2.00"), std::string::npos);
  EXPECT_NE(frame.find(" 80.0%"), std::string::npos);
  EXPECT_NE(frame.find("0.50"), std::string::npos);
  EXPECT_NE(frame.find(" 10.0%"), std::string::npos);

  // Totals row present.
  EXPECT_NE(frame.find("all"), std::string::npos);
}

TEST(View, SparklineColumnFollowsHistory) {
  util::AnsiGuard plain(false);
  std::vector<WindowStats> history;
  for (int i = 0; i < 5; ++i) history.push_back(make_window());
  const std::string frame = render_view(history.back(), history);
  EXPECT_NE(frame.find("remote% trend"), std::string::npos);

  ViewOptions no_spark;
  no_spark.spark_width = 0;
  const std::string bare = render_view(history.back(), history, no_spark);
  EXPECT_EQ(bare.find("remote% trend"), std::string::npos);
}

TEST(View, AlertColumnRendersEngineSeverities) {
  util::AnsiGuard plain(false);
  // node0 is 10% remote (would be ok by raw thresholds), node1 80%: the
  // view must render the *engine's* committed state, hysteresis and all.
  obs::AlertEngine engine;
  engine.add_rule(obs::remote_ratio_rule(0.2, 0.5, /*dwell_windows=*/2));
  const WindowStats window = make_window();

  ViewOptions options;
  options.node_alerts = evaluate_node_alerts(engine, window);
  const std::string first = render_view(window, {}, options);
  ASSERT_NE(first.find("Alert"), std::string::npos);
  // One window is below the dwell: both nodes still read ok.
  EXPECT_EQ(first.find("warn"), std::string::npos);
  EXPECT_EQ(first.find("bad"), std::string::npos);

  // The second consecutive hot window commits node1 to bad.
  options.node_alerts = evaluate_node_alerts(engine, window);
  EXPECT_EQ(options.node_alerts[0], obs::Severity::kOk);
  EXPECT_EQ(options.node_alerts[1], obs::Severity::kBad);
  const std::string second = render_view(window, {}, options);
  EXPECT_NE(second.find("bad"), std::string::npos);
  EXPECT_EQ(engine.state("remote_ratio", "node1"), obs::Severity::kBad);
}

TEST(View, NoAlertColumnWithoutEngine) {
  util::AnsiGuard plain(false);
  const std::string out = render_view(make_window(), {});
  EXPECT_EQ(out.find("Alert"), std::string::npos);
}

TEST(View, ByteStableWithoutAnsi) {
  util::AnsiGuard plain(false);
  const std::string a = render_view(make_window(), {});
  const std::string b = render_view(make_window(), {});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.find('\x1b'), std::string::npos);
}

TEST(View, ClearScreenOnlyWithAnsi) {
  ViewOptions options;
  options.clear_screen = true;
  {
    util::AnsiGuard plain(false);
    EXPECT_EQ(render_view(make_window(), {}, options).find('\x1b'), std::string::npos);
  }
  {
    util::AnsiGuard colored(true);
    EXPECT_EQ(render_view(make_window(), {}, options).rfind("\x1b[H", 0), 0u);
  }
}

}  // namespace
}  // namespace npat::monitor
