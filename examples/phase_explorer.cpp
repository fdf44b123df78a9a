// Example: Phasenprüfer beyond two phases — the paper's outlook case of
// "BSP-like programs, where multiple supersteps could be analyzed". A
// synthetic BSP application alternates allocation supersteps with compute
// supersteps; the k-phase dynamic program and the automatic model selector
// recover the superstep boundaries from the footprint alone, and counters
// are attributed per superstep.
#include <cstdio>

#include "os/procfs.hpp"
#include "phasen/attribution.hpp"
#include "phasen/report.hpp"
#include "sim/presets.hpp"
#include "trace/runner.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "workloads/rampup_app.hpp"

namespace {

using namespace npat;

// A BSP-flavoured program: `supersteps` rounds of (allocate + initialize,
// then compute over everything so far).
trace::SimTask bsp_body(trace::ThreadContext& ctx, u32 supersteps, usize step_bytes) {
  std::vector<VirtAddr> regions;
  for (u32 step = 0; step < supersteps; ++step) {
    const VirtAddr region = ctx.alloc(step_bytes);
    regions.push_back(region);
    for (usize i = 0; i < step_bytes / kCacheLineBytes; ++i) {
      co_await ctx.store(region + i * kCacheLineBytes);
      co_await ctx.compute(2);
    }
    ctx.phase_mark(10 + step);
    // Compute superstep: sweep all data accumulated so far, repeatedly.
    for (u32 round = 0; round < 6; ++round) {
      for (const VirtAddr r : regions) {
        for (usize i = 0; i < step_bytes / kCacheLineBytes; i += 2) {
          co_await ctx.load(r + i * kCacheLineBytes);
          co_await ctx.compute(8);
        }
      }
    }
    ctx.phase_mark(100 + step);
  }
}

}  // namespace

int main(int argc, char** argv) {
  i64 supersteps = 3;
  i64 step_kb = 512;
  util::Cli cli("Phase explorer: k-phase detection on a BSP-like program");
  cli.add_flag("supersteps", &supersteps, "BSP supersteps");
  cli.add_flag("step-kb", &step_kb, "bytes allocated per superstep (KiB)");
  if (const auto rc = cli.parse_main(argc, argv)) return *rc;

  const sim::MachineConfig config = sim::dual_socket_small(2);
  sim::Machine machine(config);
  trace::Run run(machine);

  os::FootprintRecorder footprint(run.space());
  phasen::CounterTimeline timeline(machine);
  run.runner().add_sampler(3000, [&](Cycles now) {
    footprint.sample(now);
    timeline.sample(now);
  });

  const u32 steps = static_cast<u32>(supersteps);
  const usize bytes = static_cast<usize>(step_kb) * 1024;
  run.run(trace::Program::single(
      [steps, bytes](trace::ThreadContext& ctx) { return bsp_body(ctx, steps, bytes); }));

  // The footprint staircase has one segment per superstep: allocation is a
  // near-vertical jump, so each superstep contributes one plateau.
  const usize expected_segments = steps;
  const auto split = phasen::detect_phases_k(footprint.samples(), expected_segments);
  std::fputs(phasen::render_footprint_chart(footprint.samples(), split).c_str(), stdout);

  const auto auto_split = phasen::detect_phases_auto(footprint.samples(),
                                                     expected_segments + 2);
  std::printf("\nautomatic model selection: %zu segments (expected %zu), R^2 = %.4f\n",
              auto_split.phases.size(), expected_segments, auto_split.fit_quality);

  const auto attribution = phasen::attribute(timeline, split);
  std::puts("");
  std::fputs(phasen::render_phase_counters(attribution,
                                           {sim::Event::kStoresRetired,
                                            sim::Event::kLoadsRetired,
                                            sim::Event::kPageWalks,
                                            sim::Event::kUncImcReads})
                 .c_str(),
             stdout);

  std::puts("\nJSON export of the split:");
  std::fputs(phasen::split_to_json(split).dump(2).substr(0, 600).c_str(), stdout);
  std::puts("\n...");
  return 0;
}
