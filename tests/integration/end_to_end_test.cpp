// Cross-module integration tests: the two-step strategy applied end to
// end, extrapolation across workload sizes, transfer across machines, and
// the full remote-probe pipeline running against a live simulation.
#include <gtest/gtest.h>

#include <cmath>

#include "evsel/collector.hpp"
#include "evsel/regress.hpp"
#include "evsel/report.hpp"
#include "memhist/builder.hpp"
#include "memhist/remote.hpp"
#include "sim/presets.hpp"
#include "workloads/cache_scan.hpp"
#include "workloads/mlc_remote.hpp"

namespace npat {
namespace {

TEST(TwoStepStrategy, ExtrapolateIndicatorsAcrossWorkloadSizes) {
  // Step 1 (code-to-indicator): measure small workloads and extrapolate —
  // "programmers could extrapolate performance indicators by continuously
  // increasing the workload sizes" (§III-B). Loads scale as size², so the
  // quadratic fit must predict the doubled size accurately.
  evsel::Collector collector(sim::uma_single_node(1));
  evsel::CollectOptions options;
  options.repetitions = 2;
  options.events = {sim::Event::kLoadsRetired, sim::Event::kL1dMiss};

  const auto sweep = evsel::sweep(
      collector, "size", {32.0, 48.0, 64.0, 96.0, 128.0},
      [](double size) {
        workloads::CacheScanParams params;
        params.size = static_cast<usize>(size);
        params.fill_phase = false;
        return workloads::cache_scan_program(params);
      },
      options);

  const auto* loads = sweep.correlation(sim::Event::kLoadsRetired);
  ASSERT_NE(loads, nullptr);
  EXPECT_EQ(loads->best.kind, stats::FitKind::kQuadratic);
  EXPECT_GT(loads->best.r_squared, 0.999);

  // Predict 256 and verify against a real run.
  const double predicted = loads->best.evaluate(256.0);
  workloads::CacheScanParams big;
  big.size = 256;
  big.fill_phase = false;
  const auto measured = collector.measure(
      "check", [&] { return workloads::cache_scan_program(big); }, options);
  const double actual = measured.mean(sim::Event::kLoadsRetired);
  EXPECT_NEAR(predicted / actual, 1.0, 0.02);
}

TEST(TwoStepStrategy, IndicatorsTransferAcrossMachines) {
  // Step 2 premise: indicators measured on one machine relate to costs on
  // another. Architecture-level counters (loads, branches) must be
  // machine-invariant while costs (cycles) differ.
  evsel::CollectOptions options;
  options.repetitions = 2;
  options.events = {sim::Event::kLoadsRetired, sim::Event::kBranches,
                    sim::Event::kCycles};
  auto factory = [] {
    workloads::CacheScanParams params;
    params.size = 64;
    return workloads::cache_scan_program(params);
  };

  evsel::Collector fast_machine(sim::uma_single_node(1));
  auto slow_config = sim::uma_single_node(1);
  slow_config.memory.local_dram_latency = 400;  // slower DRAM
  slow_config.l3.size_bytes = KiB(512);
  slow_config.base_ipc = 1.0;  // narrower core
  evsel::Collector slow_machine(slow_config);

  const auto a = fast_machine.measure("fast", factory, options);
  const auto b = slow_machine.measure("slow", factory, options);
  EXPECT_DOUBLE_EQ(a.mean(sim::Event::kLoadsRetired), b.mean(sim::Event::kLoadsRetired));
  EXPECT_DOUBLE_EQ(a.mean(sim::Event::kBranches), b.mean(sim::Event::kBranches));
  EXPECT_GT(b.mean(sim::Event::kCycles), a.mean(sim::Event::kCycles));
}

TEST(RemoteProbe, LiveSessionOverLossyLink) {
  // Full Fig. 6 pipeline against a live simulation with transport faults.
  auto config = sim::dual_socket_small(1);
  config.l3.size_bytes = MiB(1);
  sim::Machine machine(config);
  trace::Run run(machine);
  memhist::MemhistOptions options;
  options.slice_cycles = 150000;
  memhist::MemhistBuilder builder(machine, run.runner(), options);

  auto pair = util::make_loopback_pair();
  util::FaultyChannel::Config faults;
  faults.corrupt_probability = 0.15;
  faults.seed = 5;
  auto lossy = std::make_shared<util::FaultyChannel>(pair.a, faults);
  memhist::Probe probe(lossy);
  memhist::GuiCollector collector(pair.b);

  builder.start();
  workloads::MlcParams params;
  params.buffer_bytes = MiB(4);
  params.chase_steps = 80000;
  const auto result = run.run(workloads::mlc_program(params));
  builder.finish();

  probe.send_hello(machine.nodes());
  probe.send_readings(builder.readings());
  probe.send_end(result.duration);
  collector.poll();
  ASSERT_TRUE(collector.ended() || !collector.readings().empty());

  if (collector.ended()) {
    const auto histogram = collector.build(memhist::HistogramMode::kOccurrences);
    EXPECT_EQ(histogram.bins().size(), collector.readings().size());
  }
}

TEST(FullPlatform, EveryCounterMeasurableThroughBatching) {
  // EvSel's claim: *all* counters can be measured, just not in one run.
  evsel::Collector collector(sim::dual_socket_small(1));
  evsel::CollectOptions options;
  options.repetitions = 1;
  const auto m = collector.measure(
      "everything",
      [] {
        workloads::CacheScanParams params;
        params.size = 48;
        return workloads::cache_scan_program(params);
      },
      options);
  usize nonzero = 0;
  for (const auto& info : sim::all_events()) {
    EXPECT_TRUE(m.has(info.event)) << sim::event_name(info.event);
    nonzero += m.mean(info.event) > 0 ? 1 : 0;
  }
  // A real workload lights up most of the platform's counters.
  EXPECT_GT(nonzero, sim::kEventCount / 2);
}

}  // namespace
}  // namespace npat
