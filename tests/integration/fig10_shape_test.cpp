// Integration test guarding the Fig. 10 reproduction: Memhist latency
// histograms for the local-memory SIFT workload and the remote-access mlc
// workload.
#include <gtest/gtest.h>

#include "memhist/builder.hpp"
#include "sim/presets.hpp"
#include "trace/runner.hpp"
#include "workloads/mlc_remote.hpp"
#include "workloads/sift_like.hpp"

namespace npat {
namespace {

sim::MachineConfig scaled_config() {
  auto config = sim::hpe_dl580_gen9(2);
  config.l3.size_bytes = MiB(2);  // let working sets spill to DRAM
  return config;
}

memhist::LatencyHistogram measure(const trace::Program& program,
                                  memhist::HistogramMode mode) {
  const auto config = scaled_config();
  sim::Machine machine(config);
  trace::Run run(machine);
  memhist::MemhistOptions options;
  options.slice_cycles = 200000;
  options.mode = mode;
  memhist::MemhistBuilder builder(machine, run.runner(), options);
  builder.start();
  run.run(program);
  auto histogram = builder.finish();
  memhist::annotate_with_machine_levels(histogram, config);
  return histogram;
}

double occurrences_in(const memhist::LatencyHistogram& histogram, Cycles lo, Cycles hi) {
  double total = 0.0;
  for (const auto& bin : histogram.bins()) {
    if (bin.lo >= lo && bin.lo < hi) total += std::max(0.0, bin.occurrences);
  }
  return total;
}

TEST(Fig10Shape, SiftIsLocalOnly) {
  workloads::SiftLikeParams params;
  params.threads = 4;
  params.tile_bytes = MiB(2);
  params.octaves = 2;
  const auto histogram =
      measure(workloads::sift_like_program(params), memhist::HistogramMode::kOccurrences);

  // Cache + local-memory intervals dominate; the remote band (>= 256
  // cycles in this machine) is essentially empty.
  const double local_band = occurrences_in(histogram, 0, 256);
  const double remote_band = occurrences_in(histogram, 256, 100000);
  EXPECT_GT(local_band, 1000.0);
  EXPECT_LT(remote_band, local_band * 0.01);
}

TEST(Fig10Shape, SiftShowsCacheAndLocalPeaks) {
  workloads::SiftLikeParams params;
  params.threads = 2;
  params.tile_bytes = MiB(2);
  params.octaves = 2;
  const auto histogram =
      measure(workloads::sift_like_program(params), memhist::HistogramMode::kOccurrences);
  // L2 band and local-DRAM band both populated (the annotated peaks of
  // Fig. 10a).
  EXPECT_GT(occurrences_in(histogram, 8, 24), 100.0);     // L2
  EXPECT_GT(occurrences_in(histogram, 160, 256), 100.0);  // local memory
}

TEST(Fig10Shape, MlcRemoteCostsDominatedByRemoteInterval) {
  const auto config = scaled_config();
  workloads::MlcParams params = workloads::mlc_remote(config.topology, MiB(8));
  params.chase_steps = 150000;
  auto histogram =
      measure(workloads::mlc_program(params), memhist::HistogramMode::kCosts);

  const auto peak = histogram.peak_bin();
  ASSERT_TRUE(peak.has_value());
  // The peak-cost interval lies in the remote band (>= 256 cycles).
  EXPECT_GE(histogram.bins()[*peak].lo, 256u);

  double remote_cost = 0.0;
  double total_cost = 0.0;
  for (usize i = 0; i < histogram.bins().size(); ++i) {
    const double cost = std::max(0.0, histogram.value(i));
    total_cost += cost;
    if (histogram.bins()[i].lo >= 256) remote_cost += cost;
  }
  EXPECT_GT(remote_cost / total_cost, 0.7);
}

TEST(Fig10Shape, LocalChaseStaysBelowRemoteChase) {
  // The paper verified Memhist against mlc: local latencies must sit in a
  // strictly lower band than remote ones.
  auto chase = [&](sim::NodeId node) {
    workloads::MlcParams params;
    params.buffer_bytes = MiB(8);
    params.target_node = node;
    params.chase_steps = 100000;
    const auto histogram =
        measure(workloads::mlc_program(params), memhist::HistogramMode::kOccurrences);
    return histogram.bins()[*histogram.peak_bin()].lo;
  };
  EXPECT_LT(chase(0), chase(1));
}

TEST(Fig10Shape, AnnotationsPresent) {
  workloads::MlcParams params;
  params.buffer_bytes = MiB(8);
  params.chase_steps = 60000;
  const auto histogram =
      measure(workloads::mlc_program(params), memhist::HistogramMode::kOccurrences);
  std::string all_annotations;
  for (const auto& bin : histogram.bins()) all_annotations += bin.annotation + "|";
  EXPECT_NE(all_annotations.find("L2"), std::string::npos);
  EXPECT_NE(all_annotations.find("L3"), std::string::npos);
  EXPECT_NE(all_annotations.find("local memory"), std::string::npos);
  EXPECT_NE(all_annotations.find("remote memory"), std::string::npos);
}

}  // namespace
}  // namespace npat
