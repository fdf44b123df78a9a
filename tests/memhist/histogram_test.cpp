#include "memhist/histogram.hpp"

#include <gtest/gtest.h>

#include "sim/presets.hpp"

namespace npat::memhist {
namespace {

LatencyHistogram sample_histogram(HistogramMode mode = HistogramMode::kOccurrences) {
  std::vector<LatencyBin> bins = {
      {4, 8, 1000.0, false, ""},
      {8, 24, 500.0, false, ""},
      {24, 48, -3.0, true, ""},  // negative -> uncertain
      {48, 96, 50.0, false, ""},
      {96, 0, 10.0, false, ""},  // open-ended
  };
  return LatencyHistogram(std::move(bins), mode);
}

TEST(Histogram, RepresentativeLatency) {
  LatencyBin bin{8, 24, 1.0, false, ""};
  EXPECT_DOUBLE_EQ(bin.representative_latency(), 16.0);
  LatencyBin open{96, 0, 1.0, false, ""};
  EXPECT_DOUBLE_EQ(open.representative_latency(), 144.0);  // 1.5x lower bound
}

TEST(Histogram, ValueDependsOnMode) {
  auto h = sample_histogram();
  EXPECT_DOUBLE_EQ(h.value(0), 1000.0);
  h.set_mode(HistogramMode::kCosts);
  EXPECT_DOUBLE_EQ(h.value(0), 1000.0 * 6.0);  // occurrences x midpoint
}

TEST(Histogram, PeakBinIgnoresUncertain) {
  std::vector<LatencyBin> bins = {
      {4, 8, 5.0, false, ""},
      {8, 16, 99999.0, true, ""},  // uncertain: excluded
      {16, 0, 50.0, false, ""},
  };
  LatencyHistogram h(std::move(bins), HistogramMode::kOccurrences);
  const auto peak = h.peak_bin();
  ASSERT_TRUE(peak.has_value());
  EXPECT_EQ(*peak, 2u);
}

TEST(Histogram, CostModeCanMovePeak) {
  // Occurrences peak at the cheap bin, costs peak at the expensive one —
  // the paper's motivation for offering both modes.
  std::vector<LatencyBin> bins = {
      {4, 8, 1000.0, false, ""},   // cost 6000
      {256, 384, 100.0, false, ""},  // cost 32000
  };
  LatencyHistogram h(std::move(bins), HistogramMode::kOccurrences);
  EXPECT_EQ(*h.peak_bin(), 0u);
  h.set_mode(HistogramMode::kCosts);
  EXPECT_EQ(*h.peak_bin(), 1u);
}

TEST(Histogram, UncertainCountAndTotals) {
  const auto h = sample_histogram();
  EXPECT_EQ(h.uncertain_bins(), 1u);
  EXPECT_DOUBLE_EQ(h.total_occurrences(), 1560.0);  // negatives clamped
}

TEST(Histogram, RenderContainsLabelsAndFootnote) {
  const auto h = sample_histogram();
  const std::string out = h.render("test");
  EXPECT_NE(out.find("[4, 8)"), std::string::npos);
  EXPECT_NE(out.find("[96, inf)"), std::string::npos);
  EXPECT_NE(out.find("uncertain sampling"), std::string::npos);
  EXPECT_NE(out.find("(event occurrences)"), std::string::npos);
}

TEST(Histogram, AnnotationPlacesMachineLevels) {
  auto config = sim::hpe_dl580_gen9(1);
  // Bins straddling the machine's characteristic latencies.
  std::vector<LatencyBin> bins = {
      {4, 8, 1, false, ""},     {8, 24, 1, false, ""},   {24, 48, 1, false, ""},
      {48, 96, 1, false, ""},   {96, 160, 1, false, ""}, {160, 256, 1, false, ""},
      {256, 384, 1, false, ""}, {384, 0, 1, false, ""},
  };
  LatencyHistogram h(std::move(bins), HistogramMode::kOccurrences);
  annotate_with_machine_levels(h, config);

  // L2 = 12 -> [8,24); L3 = 60 -> [48,96); local = 4+190 -> [160,256);
  // remote (1 hop) = 4+190+120 -> [256,384).
  EXPECT_EQ(h.bins()[1].annotation, "L2");
  EXPECT_EQ(h.bins()[3].annotation, "L3");
  EXPECT_EQ(h.bins()[5].annotation, "local memory");
  EXPECT_EQ(h.bins()[6].annotation, "remote memory");
}

TEST(Histogram, AnnotationMultiHopTopology) {
  auto config = sim::eight_socket_cube(1);
  std::vector<LatencyBin> bins = {
      {256, 384, 1, false, ""},  // 1 hop = 314
      {384, 512, 1, false, ""},  // 2 hops = 434
  };
  LatencyHistogram h(std::move(bins), HistogramMode::kOccurrences);
  annotate_with_machine_levels(h, config);
  EXPECT_NE(h.bins()[0].annotation.find("1 hop"), std::string::npos);
  EXPECT_NE(h.bins()[1].annotation.find("2 hops"), std::string::npos);
}

}  // namespace
}  // namespace npat::memhist
