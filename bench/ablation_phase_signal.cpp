// Ablation for Phasenprüfer's input signal (§IV-C): "Attempts at using
// performance counters for phase detection failed due to strong
// statistical fluctuations and few available samples. Hence, Phasenprüfer
// performs phase detection based on the memory footprint."
//
// We reproduce the failure: the same two-phase workload is split once from
// the footprint and once from a raw counter-rate series, across several
// seeds; the footprint detector lands near the ground truth while the
// counter detector scatters.
#include <cstdio>

#include <cmath>

#include "os/procfs.hpp"
#include "phasen/attribution.hpp"
#include "phasen/detector.hpp"
#include "stats/descriptive.hpp"
#include "sim/presets.hpp"
#include "trace/runner.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workloads/rampup_app.hpp"

int main(int argc, char** argv) {
  using namespace npat;

  i64 trials = 6;
  util::Cli cli("Ablation: footprint-based vs counter-based phase detection");
  cli.add_flag("trials", &trials, "independent runs");
  if (const auto rc = cli.parse_main(argc, argv)) return *rc;

  const sim::MachineConfig config = sim::hpe_dl580_gen9(2);
  sim::Machine machine(config);

  stats::Accumulator footprint_error;
  stats::Accumulator counter_error;

  for (i64 trial = 0; trial < trials; ++trial) {
    trace::Run run(machine, {.seed = 1000 + static_cast<u64>(trial)});

    os::FootprintRecorder footprint(run.space());
    phasen::CounterTimeline timeline(machine);
    run.runner().add_sampler(250000, [&](Cycles now) {
      footprint.sample(now);
      timeline.sample(now);
    });

    workloads::RampupParams params;
    params.regions = 48;
    params.region_bytes = 128 * 1024;
    params.compute_rounds = 20;
    const auto result = run.run(workloads::rampup_app_program(params));

    Cycles truth = 0;
    for (const auto& mark : result.phase_marks) {
      if (mark.id == 1) truth = mark.timestamp;
    }

    // Footprint-based detection.
    const auto split = phasen::detect_phases(footprint.samples());
    footprint_error.add(
        100.0 * std::fabs(static_cast<double>(split.pivot_time) - static_cast<double>(truth)) /
        static_cast<double>(result.duration));

    // Counter-based detection: per-interval instruction rate, the obvious
    // "activity" signal — noisy because each sample is a small window.
    const auto& snapshots = timeline.snapshots();
    std::vector<double> times;
    std::vector<double> rates;
    for (usize i = 1; i < snapshots.size(); ++i) {
      const double window = static_cast<double>(snapshots[i].timestamp -
                                                snapshots[i - 1].timestamp);
      if (window <= 0) continue;
      const double delta =
          static_cast<double>(snapshots[i].totals[sim::Event::kBranchMisses] -
                              snapshots[i - 1].totals[sim::Event::kBranchMisses]);
      times.push_back(static_cast<double>(snapshots[i].timestamp));
      rates.push_back(delta / window * 1e6);
    }
    const auto counter_split = phasen::detect_on_counter_series(times, rates);
    counter_error.add(100.0 *
                      std::fabs(static_cast<double>(counter_split.pivot_time) -
                                static_cast<double>(truth)) /
                      static_cast<double>(result.duration));
  }

  util::Table table({"signal", "mean pivot error", "worst pivot error"});
  table.set_title("Phase-detection input ablation (" + std::to_string(trials) +
                  " trials, error as % of run length)");
  table.set_align(1, util::Align::kRight);
  table.set_align(2, util::Align::kRight);
  table.add_row({"memory footprint (Phasenprüfer)",
                 util::format("%.2f %%", footprint_error.mean()),
                 util::format("%.2f %%", footprint_error.max())});
  table.add_row({"branch-miss rate (failed approach)",
                 util::format("%.2f %%", counter_error.mean()),
                 util::format("%.2f %%", counter_error.max())});
  std::fputs(table.render().c_str(), stdout);
  return 0;
}
