// Integration test guarding the Fig. 11 reproduction: Phasenprüfer's
// footprint-based phase split of a browser-like start-up, with per-phase
// counter attribution.
#include <gtest/gtest.h>

#include <cmath>

#include "os/procfs.hpp"
#include "phasen/attribution.hpp"
#include "phasen/detector.hpp"
#include "sim/presets.hpp"
#include "trace/runner.hpp"
#include "workloads/rampup_app.hpp"

namespace npat {
namespace {

struct Fig11Data {
  std::vector<os::FootprintSample> footprint;
  phasen::PhaseSplit split;
  phasen::PhaseAttribution attribution;
  Cycles truth = 0;
  Cycles duration = 0;
};

const Fig11Data& fig11() {
  static const Fig11Data data = [] {
    sim::Machine machine(sim::hpe_dl580_gen9(1));
    trace::Run run(machine);
    os::FootprintRecorder recorder(run.space());
    phasen::CounterTimeline timeline(machine);
    run.runner().add_sampler(150000, [&](Cycles now) {
      recorder.sample(now);
      timeline.sample(now);
    });

    workloads::RampupParams params;
    params.regions = 48;
    params.region_bytes = 192 * 1024;
    params.compute_rounds = 24;
    const auto result = run.run(workloads::rampup_app_program(params));

    Fig11Data out;
    out.footprint = recorder.samples();
    out.split = phasen::detect_phases(recorder.samples());
    out.attribution = phasen::attribute(timeline, out.split);
    for (const auto& mark : result.phase_marks) {
      if (mark.id == 1) out.truth = mark.timestamp;
    }
    out.duration = result.duration;
    return out;
  }();
  return data;
}

TEST(Fig11Shape, PivotNearGroundTruth) {
  const auto& data = fig11();
  const double error =
      std::fabs(static_cast<double>(data.split.pivot_time) -
                static_cast<double>(data.truth)) /
      static_cast<double>(data.duration);
  EXPECT_LT(error, 0.05);  // within 5 % of the run length
}

TEST(Fig11Shape, RampUpSlopeDominates) {
  const auto& data = fig11();
  ASSERT_EQ(data.split.phases.size(), 2u);
  EXPECT_GT(data.split.phases[0].slope_bytes_per_cycle,
            20.0 * std::max(1e-12, data.split.phases[1].slope_bytes_per_cycle));
  EXPECT_GT(data.split.fit_quality, 0.95);
}

TEST(Fig11Shape, RampUpDominatedByAllocationActivity) {
  // "most of the events in the ramp-up phase are caused by I/O activity or
  // memory redistribution" — in our model: stores and page walks.
  const auto& data = fig11();
  ASSERT_EQ(data.attribution.phases.size(), 2u);
  const auto& ramp = data.attribution.phases[0];
  const auto& compute = data.attribution.phases[1];
  EXPECT_GT(ramp.rate(sim::Event::kStoresRetired),
            10.0 * std::max(1.0, compute.rate(sim::Event::kStoresRetired)));
  EXPECT_GT(ramp.rate(sim::Event::kPageWalks),
            5.0 * std::max(1.0, compute.rate(sim::Event::kPageWalks)));
}

TEST(Fig11Shape, ComputePhaseLoadDominated) {
  const auto& data = fig11();
  const auto& compute = data.attribution.phases[1];
  EXPECT_GT(compute.rate(sim::Event::kLoadsRetired),
            compute.rate(sim::Event::kStoresRetired));
}

TEST(Fig11Shape, AutoModelAgreesOnTwoPhases) {
  const auto& data = fig11();
  const auto auto_split = phasen::detect_phases_auto(data.footprint);
  // 2 phases, or 3 when the churn staircase is strong enough to matter;
  // never 1 (the knee is unmistakable).
  EXPECT_GE(auto_split.phases.size(), 2u);
}

}  // namespace
}  // namespace npat
