#include "workloads/rampup_app.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "os/procfs.hpp"
#include "sim/presets.hpp"
#include "util/check.hpp"

namespace npat::workloads {
namespace {

struct RampOutcome {
  std::vector<os::FootprintSample> footprint;
  trace::RunResult result;
  sim::CounterBlock counters;
};

RampOutcome run_app(const RampupParams& params) {
  sim::Machine machine(sim::dual_socket_small(1));
  trace::Run run(machine);
  os::FootprintRecorder recorder(run.space());
  run.runner().add_sampler(100000, [&](Cycles now) { recorder.sample(now); });
  RampOutcome out;
  out.result = run.run(rampup_app_program(params));
  out.footprint = recorder.samples();
  out.counters = machine.aggregate_counters();
  return out;
}

RampupParams default_params() {
  RampupParams params;
  params.regions = 32;
  params.region_bytes = 128 * 1024;
  params.compute_rounds = 16;
  return params;
}

TEST(RampupApp, FootprintGrowsThenFlattens) {
  const auto outcome = run_app(default_params());
  ASSERT_GE(outcome.footprint.size(), 10u);

  Cycles truth = 0;
  for (const auto& mark : outcome.result.phase_marks) {
    if (mark.id == 1) truth = mark.timestamp;
  }
  ASSERT_GT(truth, 0u);

  // Mean growth per sample before the mark must far exceed after.
  double before = 0;
  double after = 0;
  usize n_before = 0;
  usize n_after = 0;
  for (usize i = 1; i < outcome.footprint.size(); ++i) {
    const double delta = static_cast<double>(outcome.footprint[i].reserved_bytes) -
                         static_cast<double>(outcome.footprint[i - 1].reserved_bytes);
    if (outcome.footprint[i].timestamp <= truth) {
      before += delta;
      ++n_before;
    } else {
      after += delta;
      ++n_after;
    }
  }
  ASSERT_GT(n_before, 2u);
  ASSERT_GT(n_after, 2u);
  EXPECT_GT(before / n_before, 10.0 * std::max(1.0, after / n_after));
}

TEST(RampupApp, RampUpIsStoreDominatedComputeIsLoadDominated) {
  // The paper's §IV-C observation: ramp-up events come from allocation/IO.
  sim::Machine machine(sim::dual_socket_small(1));
  trace::Run run(machine);
  const auto result = run.run(rampup_app_program(default_params()));
  Cycles truth = 0;
  for (const auto& mark : result.phase_marks) {
    if (mark.id == 1) truth = mark.timestamp;
  }
  // Rough split: ramp-up ends well before the run ends.
  EXPECT_LT(truth, machine.max_clock() / 2);
}

TEST(RampupApp, ReservedFootprintCountsAllocationsNotTouches) {
  RampupParams params = default_params();
  params.compute_rounds = 1;
  const auto outcome = run_app(params);
  const u64 expected_min = static_cast<u64>(params.regions) * params.region_bytes;
  EXPECT_GE(outcome.footprint.back().reserved_bytes, expected_min);
}

TEST(RampupApp, ChurnKeepsComputePhaseSlopePositiveButSmall) {
  const auto outcome = run_app(default_params());
  Cycles truth = 0;
  for (const auto& mark : outcome.result.phase_marks) {
    if (mark.id == 1) truth = mark.timestamp;
  }
  u64 at_mark = 0;
  for (const auto& sample : outcome.footprint) {
    if (sample.timestamp <= truth) at_mark = sample.reserved_bytes;
  }
  const u64 at_end = outcome.footprint.back().reserved_bytes;
  EXPECT_GE(at_end, at_mark);                      // churn only adds
  EXPECT_LT(at_end - at_mark, at_mark / 4);        // ...but stays gentle
}

TEST(RampupApp, InvalidParamsRejected) {
  RampupParams params;
  params.regions = 0;
  EXPECT_THROW(rampup_app_program(params), CheckError);
}

}  // namespace
}  // namespace npat::workloads
