// Ablation for Memhist's time-cycling rate (§IV-B.1): the paper cycles at
// 100 Hz and acknowledges that "negative event occurrences might be
// observed if the measurements for both bounds vary excessively". Faster
// cycling samples every threshold more often per program phase (fewer
// aliasing artefacts) at the cost of more PEBS reprogramming; slower
// cycling leaves thresholds unsampled and bins uncertain. This bench
// sweeps the slice length on a phase-structured workload and reports the
// damage per setting.
#include <cstdio>

#include <cmath>

#include "memhist/builder.hpp"
#include "sim/presets.hpp"
#include "trace/runner.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workloads/rampup_app.hpp"

int main(int argc, char** argv) {
  using namespace npat;

  util::Cli cli("Ablation: Memhist threshold-cycling rate vs histogram damage");
  if (const auto rc = cli.parse_main(argc, argv)) return *rc;

  sim::MachineConfig config = sim::dual_socket_small(1);
  config.l3.size_bytes = KiB(512);
  sim::Machine machine(config);

  // Phase-structured workload: allocation burst then compute — exactly the
  // shape that aliases into a slowly cycled ladder.
  auto factory = [] {
    workloads::RampupParams params;
    params.regions = 32;
    params.region_bytes = 256 * 1024;
    params.compute_rounds = 12;
    return workloads::rampup_app_program(params);
  };

  util::Table table({"slice (cycles)", "slices/threshold", "uncertain bins",
                     "negative mass", "total occurrences"});
  table.set_title("Memhist cycling-rate ablation (11-threshold ladder)");
  for (usize c = 1; c < 5; ++c) table.set_align(c, util::Align::kRight);

  for (const Cycles slice : {Cycles{20000}, Cycles{60000}, Cycles{200000},
                             Cycles{1000000}, Cycles{4000000}}) {
    trace::Run run(machine);
    memhist::MemhistOptions options;
    options.slice_cycles = slice;
    memhist::MemhistBuilder builder(machine, run.runner(), options);
    builder.start();
    run.run(factory());
    const auto histogram = builder.finish();

    u64 slices = 0;
    for (const auto& reading : builder.readings()) slices += reading.slices;
    double negative_mass = 0;
    for (const auto& bin : histogram.bins()) {
      negative_mass += std::min(0.0, bin.occurrences);
    }
    table.add_row({util::with_thousands(slice),
                   util::compact_double(static_cast<double>(slices) /
                                            static_cast<double>(builder.readings().size()),
                                        1),
                   std::to_string(histogram.uncertain_bins()),
                   util::si_scaled(-negative_mass),
                   util::si_scaled(histogram.total_occurrences())});
  }
  std::fputs(table.render().c_str(), stdout);
  std::puts("\nfast cycling keeps every threshold sampled across program phases;");
  std::puts("slow cycling (the right column of the table) leaves thresholds unsampled");
  std::puts("and lets phase structure alias into negative interval counts — the");
  std::puts("error source the paper attributes to excessive bound variance.");
  return 0;
}
