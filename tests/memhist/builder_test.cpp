#include "memhist/builder.hpp"

#include <gtest/gtest.h>

#include "sim/presets.hpp"
#include "util/check.hpp"
#include "workloads/mlc_remote.hpp"
#include "workloads/sift_like.hpp"

namespace npat::memhist {
namespace {

sim::MachineConfig small_l3() {
  auto config = sim::dual_socket_small(1);
  config.l3.size_bytes = MiB(1);
  config.memory.jitter_fraction = 0.0;
  return config;
}

TEST(Builder, LadderMustAscend) {
  sim::Machine machine(small_l3());
  trace::Run run(machine);
  MemhistOptions options;
  options.thresholds = {8, 8};
  EXPECT_THROW(MemhistBuilder(machine, run.runner(), options), CheckError);
}

TEST(Builder, CyclesThroughAllThresholds) {
  sim::Machine machine(small_l3());
  trace::Run run(machine);
  MemhistOptions options;
  options.slice_cycles = 100000;
  MemhistBuilder builder(machine, run.runner(), options);
  builder.start();
  workloads::MlcParams params;
  params.buffer_bytes = MiB(4);
  params.chase_steps = 100000;
  run.run(workloads::mlc_program(params));
  builder.finish();

  // The run is long enough that every threshold got at least one slice.
  for (const auto& reading : builder.readings()) {
    EXPECT_GE(reading.slices, 1u) << "threshold " << reading.threshold;
    EXPECT_GT(reading.window_cycles, 0u) << "threshold " << reading.threshold;
  }
}

TEST(Builder, MonotoneThresholdRates) {
  // Counts at-or-above must (statistically) decrease with the threshold.
  sim::Machine machine(small_l3());
  trace::Run run(machine);
  MemhistOptions options;
  options.slice_cycles = 100000;
  MemhistBuilder builder(machine, run.runner(), options);
  builder.start();
  workloads::MlcParams params;
  params.buffer_bytes = MiB(4);
  params.chase_steps = 150000;
  run.run(workloads::mlc_program(params));
  builder.finish();

  // Tolerance is deliberately loose: thresholds are sampled in *different*
  // time slices, so program phases alias into the ladder — the very error
  // source behind the paper's negative-count warning.
  double previous_rate = std::numeric_limits<double>::infinity();
  for (const auto& reading : builder.readings()) {
    const double rate = static_cast<double>(reading.counted) /
                        static_cast<double>(reading.window_cycles);
    EXPECT_LE(rate, previous_rate * 2.0) << "threshold " << reading.threshold;
    previous_rate = std::max(rate, 1e-12);
  }
}

TEST(Builder, LocalChasePeaksAtLocalMemory) {
  sim::Machine machine(small_l3());
  trace::Run run(machine);
  MemhistOptions options;
  options.slice_cycles = 100000;
  MemhistBuilder builder(machine, run.runner(), options);
  builder.start();
  workloads::MlcParams params;
  params.buffer_bytes = MiB(4);
  params.chase_steps = 150000;
  run.run(workloads::mlc_program(params));
  auto histogram = builder.finish();

  const auto peak = histogram.peak_bin();
  ASSERT_TRUE(peak.has_value());
  const auto& bin = histogram.bins()[*peak];
  // Local DRAM use latency ~194 (+ queueing/fill-buffer waits).
  EXPECT_GE(bin.lo, 96u);
  EXPECT_LE(bin.lo, 384u);
}

TEST(Builder, RemoteChasePeaksHigherThanLocal) {
  auto run_chase = [&](sim::NodeId node) {
    sim::Machine machine(small_l3());
    trace::Run run(machine);
    MemhistOptions options;
    options.slice_cycles = 100000;
    MemhistBuilder builder(machine, run.runner(), options);
    builder.start();
    workloads::MlcParams params;
    params.buffer_bytes = MiB(4);
    params.chase_steps = 150000;
    params.target_node = node;
    run.run(workloads::mlc_program(params));
    auto histogram = builder.finish();
    return histogram.bins()[*histogram.peak_bin()].lo;
  };
  EXPECT_GT(run_chase(1), run_chase(0));
}

TEST(Builder, BuildFlagsNegativeBins) {
  std::vector<ThresholdReading> readings = {
      {8, 100, 1000, 1},
      {16, 150, 1000, 1},  // higher rate at higher threshold: impossible
      {32, 10, 1000, 1},
  };
  const auto histogram = MemhistBuilder::build(readings, 1000, HistogramMode::kOccurrences);
  ASSERT_EQ(histogram.bins().size(), 3u);
  EXPECT_LT(histogram.bins()[0].occurrences, 0.0);
  EXPECT_TRUE(histogram.bins()[0].uncertain);
  EXPECT_FALSE(histogram.bins()[1].uncertain);
}

TEST(Builder, BuildMarksUnsampledThresholds) {
  std::vector<ThresholdReading> readings = {
      {8, 100, 1000, 1},
      {16, 0, 0, 0},  // never armed
      {32, 10, 1000, 1},
  };
  const auto histogram = MemhistBuilder::build(readings, 1000, HistogramMode::kOccurrences);
  EXPECT_TRUE(histogram.bins()[0].uncertain);  // neighbour of unsampled
  EXPECT_TRUE(histogram.bins()[1].uncertain);
}

TEST(Builder, ExtrapolationScalesWithTotalCycles) {
  std::vector<ThresholdReading> readings = {{8, 50, 500, 1}};
  const auto h1 = MemhistBuilder::build(readings, 1000, HistogramMode::kOccurrences);
  const auto h2 = MemhistBuilder::build(readings, 2000, HistogramMode::kOccurrences);
  EXPECT_DOUBLE_EQ(h2.bins()[0].occurrences, 2.0 * h1.bins()[0].occurrences);
}

TEST(Builder, StartFinishStateChecked) {
  sim::Machine machine(small_l3());
  trace::Run run(machine);
  MemhistBuilder builder(machine, run.runner(), MemhistOptions{});
  EXPECT_THROW(builder.finish(), CheckError);
  builder.start();
  EXPECT_THROW(builder.start(), CheckError);
}

}  // namespace
}  // namespace npat::memhist

namespace npat::memhist {
namespace {

TEST(Builder, SourceFilteredHistogramSeesOnlyThatSource) {
  // Chase a remote buffer with a remote-DRAM filter: the cache-level bands
  // stay empty and everything lands in the remote band.
  auto config = sim::dual_socket_small(1);
  config.l3.size_bytes = MiB(1);
  config.memory.jitter_fraction = 0.0;
  sim::Machine machine(config);
  trace::Run run(machine);
  MemhistOptions options;
  options.slice_cycles = 100000;
  options.source_filter = sim::DataSource::kRemoteDram;
  MemhistBuilder builder(machine, run.runner(), options);
  builder.start();
  workloads::MlcParams params;
  params.buffer_bytes = MiB(4);
  params.chase_steps = 150000;
  params.target_node = 1;
  run.run(workloads::mlc_program(params));
  const auto histogram = builder.finish();

  double below_256 = 0;
  double at_or_above_256 = 0;
  for (const auto& bin : histogram.bins()) {
    const double value = std::max(0.0, bin.occurrences);
    (bin.lo < 256 ? below_256 : at_or_above_256) += value;
  }
  EXPECT_GT(at_or_above_256, 1000.0);
  EXPECT_LT(below_256, at_or_above_256 * 0.05);
}

}  // namespace
}  // namespace npat::memhist
