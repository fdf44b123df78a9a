// Quickstart: measure a tiny workload with all three tools in ~40 lines of
// API. Simulates a 2-socket machine, runs a strided scan, and shows
//   1. EvSel      — which counters changed between two configurations,
//   2. Memhist    — where the load latencies went,
//   3. Phasenprüfer — where the ramp-up phase ended.
// Along the way npat::obs records spans of every tool stage; the demo
// finishes by dumping them as a Chrome trace plus a flame summary.
#include <cstdio>

#include "evsel/collector.hpp"
#include "evsel/compare.hpp"
#include "evsel/report.hpp"
#include "memhist/builder.hpp"
#include "obs/obs.hpp"
#include "os/procfs.hpp"
#include "phasen/attribution.hpp"
#include "phasen/report.hpp"
#include "sim/presets.hpp"
#include "util/json.hpp"
#include "workloads/cache_scan.hpp"
#include "workloads/rampup_app.hpp"

int main() {
  using namespace npat;

  // --- 1. EvSel: compare cache-friendly vs strided traversal -------------
  sim::MachineConfig config = sim::dual_socket_small(2);
  evsel::Collector collector(config);
  evsel::CollectOptions options;
  options.repetitions = 3;

  workloads::CacheScanParams friendly;
  friendly.size = 192;
  workloads::CacheScanParams strided = friendly;
  strided.variant = workloads::ScanVariant::kRowStride;

  const auto measurement_a = collector.measure(
      "unit-stride", [&] { return workloads::cache_scan_program(friendly); }, options);
  const auto measurement_b = collector.measure(
      "row-stride", [&] { return workloads::cache_scan_program(strided); }, options);
  const auto comparison = evsel::compare(measurement_a, measurement_b);
  evsel::ReportOptions report;
  report.max_rows = 10;
  report.show_descriptions = false;
  std::fputs(evsel::render_comparison(comparison, report).c_str(), stdout);

  // --- 2. Memhist: latency histogram of the strided scan -----------------
  sim::Machine machine(config);
  trace::Run run(machine);
  memhist::MemhistOptions hist_options;
  hist_options.slice_cycles = 40000;
  memhist::MemhistBuilder builder(machine, run.runner(), hist_options);
  builder.start();
  run.run(workloads::cache_scan_program(strided));
  auto histogram = builder.finish();
  memhist::annotate_with_machine_levels(histogram, config);
  std::puts("");
  std::fputs(histogram.render("Memhist: row-stride scan").c_str(), stdout);

  // --- 3. Phasenprüfer: find the ramp-up/compute transition --------------
  sim::Machine machine2(config);
  trace::Run run2(machine2);
  os::FootprintRecorder recorder(run2.space());
  run2.runner().add_sampler(100000, [&](Cycles now) { recorder.sample(now); });
  workloads::RampupParams app;
  app.regions = 24;
  run2.run(workloads::rampup_app_program(app));
  const auto split = phasen::detect_phases(recorder.samples());
  std::puts("");
  std::fputs(phasen::render_footprint_chart(recorder.samples(), split).c_str(), stdout);

  // --- 4. npat::obs: where did the toolkit itself spend its time? --------
  const std::string trace_path = "npat_quickstart_trace.json";
  util::write_file(trace_path, obs::tracer().chrome_trace().dump(2));
  std::puts("");
  std::fputs(obs::tracer().flame_summary().c_str(), stdout);
  std::printf("wrote %s — open in chrome://tracing or Perfetto\n", trace_path.c_str());
  return 0;
}
