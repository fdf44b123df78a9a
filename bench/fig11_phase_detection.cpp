// Reproduces Fig. 11: Phasenprüfer splitting an end-user application's
// start-up (the paper uses Google Chrome) into ramp-up and computation
// phases from the procfs memory footprint, then attributing hardware
// counters to each phase. The workload's own phase_mark provides ground
// truth to score the detected pivot against.
#include <cstdio>

#include <cmath>

#include "os/procfs.hpp"
#include "phasen/attribution.hpp"
#include "phasen/report.hpp"
#include "sim/presets.hpp"
#include "trace/runner.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "workloads/rampup_app.hpp"

int main(int argc, char** argv) {
  using namespace npat;

  i64 regions = 64;
  i64 region_kb = 256;
  i64 rounds = 32;
  util::Cli cli("Fig. 11: Phasenprüfer on a browser-like start-up workload");
  cli.add_flag("regions", &regions, "allocations during ramp-up");
  cli.add_flag("region-kb", &region_kb, "bytes per allocation (KiB)");
  cli.add_flag("rounds", &rounds, "computation-phase rounds");
  if (const auto rc = cli.parse_main(argc, argv)) return *rc;

  const sim::MachineConfig config = sim::hpe_dl580_gen9(2);
  sim::Machine machine(config);
  trace::Run run(machine);

  os::FootprintRecorder footprint(run.space());
  phasen::CounterTimeline timeline(machine);
  // Footprint + counter snapshots at the same cadence (10 Hz equivalent is
  // far too sparse for a short simulated run; sample densely instead).
  run.runner().add_sampler(200000, [&](Cycles now) {
    footprint.sample(now);
    timeline.sample(now);
  });

  workloads::RampupParams params;
  params.regions = static_cast<u32>(regions);
  params.region_bytes = static_cast<usize>(region_kb) * 1024;
  params.compute_rounds = static_cast<u32>(rounds);
  const auto result = run.run(workloads::rampup_app_program(params));

  const auto split = phasen::detect_phases(footprint.samples());
  std::fputs(phasen::render_footprint_chart(footprint.samples(), split).c_str(), stdout);

  // Ground truth from the workload's phase mark.
  Cycles truth = 0;
  for (const auto& mark : result.phase_marks) {
    if (mark.id == 1) truth = mark.timestamp;
  }
  const double error_pct =
      100.0 * std::fabs(static_cast<double>(split.pivot_time) - static_cast<double>(truth)) /
      static_cast<double>(result.duration);
  std::printf("\nground-truth transition: cycle %llu; detected: cycle %llu "
              "(error %.2f %% of the run)\n\n",
              static_cast<unsigned long long>(truth),
              static_cast<unsigned long long>(split.pivot_time), error_pct);

  const auto attribution = phasen::attribute(timeline, split);
  std::fputs(phasen::render_phase_counters(attribution).c_str(), stdout);

  // The paper's observation: ramp-up events are dominated by I/O /
  // allocation activity. Compare stores vs loads rates per phase.
  if (attribution.phases.size() >= 2) {
    const auto& ramp = attribution.phases[0];
    const auto& compute = attribution.phases[1];
    std::printf("\nstore rate: ramp-up %.1f/Mcyc vs computation %.1f/Mcyc\n",
                ramp.rate(sim::Event::kStoresRetired), compute.rate(sim::Event::kStoresRetired));
    std::printf("load rate:  ramp-up %.1f/Mcyc vs computation %.1f/Mcyc\n",
                ramp.rate(sim::Event::kLoadsRetired), compute.rate(sim::Event::kLoadsRetired));
  }

  // k-phase extension (paper outlook): automatic model selection.
  const auto auto_split = phasen::detect_phases_auto(footprint.samples());
  std::printf("\nautomatic model selection chose %zu phase(s), fit R^2 = %.4f\n",
              auto_split.phases.size(), auto_split.fit_quality);
  return 0;
}
