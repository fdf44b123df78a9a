// Reproduces Fig. 8 (and the §V-A.1 narrative): EvSel comparison of the
// cache-miss micro-benchmark, Listing 1 (unit stride) vs Listing 2 (row
// stride). The paper reports, for the strided variant:
//   L1 misses  +>1000 %          L2 misses   +>300 %
//   L3 misses  +~50 %            L2 prefetches −90 %
//   L3 accesses ×100             fill-buffer rejects 26 → ~3 M
//   branch misses +3.2 %, instructions +1.9 % (barely moving)
// with significances >99.9 %. Absolute numbers differ on the simulator;
// the directions and magnitudes of the ratios are the reproduction target.
#include <cstdio>

#include "counter_digest.hpp"
#include "evsel/collector.hpp"
#include "evsel/compare.hpp"
#include "perf/registry.hpp"
#include "evsel/report.hpp"
#include "sim/presets.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workloads/cache_scan.hpp"

namespace {

struct ShapeRow {
  const char* label;
  npat::sim::Event event;
  const char* paper;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace npat;

  i64 size = 1024;
  i64 repetitions = 5;
  util::Cli cli("Fig. 8: EvSel comparison of the cache-miss micro-benchmark");
  cli.add_flag("size", &size, "array dimension (size x size floats)");
  cli.add_flag("reps", &repetitions, "repetitions per configuration");
  if (const auto rc = cli.parse_main(argc, argv)) return *rc;

  evsel::Collector collector(sim::hpe_dl580_gen9(2));
  evsel::CollectOptions options;
  options.repetitions = static_cast<u32>(repetitions);

  workloads::CacheScanParams listing1;
  listing1.size = static_cast<usize>(size);
  listing1.variant = workloads::ScanVariant::kUnitStride;
  // The listings' fill is only a comment; measure the traversal alone.
  listing1.fill_phase = false;
  workloads::CacheScanParams listing2 = listing1;
  listing2.variant = workloads::ScanVariant::kRowStride;

  std::printf("measuring %lld repetitions x %zu event groups per variant...\n\n",
              static_cast<long long>(repetitions),
              perf::plan_event_groups(perf::available_events()).size());

  const auto a = collector.measure(
      "listing-1 (unit stride)",
      [&] { return workloads::cache_scan_program(listing1); }, options);
  const auto b = collector.measure(
      "listing-2 (row stride)",
      [&] { return workloads::cache_scan_program(listing2); }, options);
  const auto comparison = evsel::compare(a, b);

  evsel::ReportOptions report;
  report.max_rows = 18;
  report.show_descriptions = false;
  std::fputs(evsel::render_comparison(comparison, report).c_str(), stdout);

  // Paper-vs-measured shape summary.
  const ShapeRow kShape[] = {
      {"L1 misses", sim::Event::kL1dMiss, "+>1000 %"},
      {"L2 misses", sim::Event::kL2Miss, "+>300 %"},
      {"L3 misses", sim::Event::kL3Miss, "+~50 %"},
      {"L2 prefetch requests", sim::Event::kL2PrefetchRequests, "-90 %"},
      {"L3 accesses", sim::Event::kL3Access, "x100"},
      {"fill buffer rejects", sim::Event::kFillBufferRejects, "26 -> ~3 M"},
      {"branch misses", sim::Event::kBranchMisses, "+3.2 %"},
      {"instructions", sim::Event::kInstructions, "+1.9 %"},
  };
  util::Table shape({"quantity", "paper", "measured A", "measured B", "measured Δ",
                     "confidence"});
  shape.set_title("Fig. 8 shape summary (paper vs simulator)");
  shape.set_align(2, util::Align::kRight);
  shape.set_align(3, util::Align::kRight);
  shape.set_align(4, util::Align::kRight);
  for (const auto& row : kShape) {
    const auto& r = comparison.row(row.event);
    std::string delta;
    if (r.test.mean_a == 0.0) {
      delta = r.test.mean_b == 0.0 ? "0 -> 0" : "0 -> " + util::si_scaled(r.test.mean_b);
    } else if (r.test.relative_delta >= 99.5) {
      delta = util::format("x%.0f", r.test.relative_delta + 1.0);
    } else {
      delta = util::percent_delta(r.test.relative_delta);
    }
    shape.add_row({row.label, row.paper, util::si_scaled(r.test.mean_a),
                   util::si_scaled(r.test.mean_b), delta,
                   r.test.degenerate ? "n/a" : util::format("%.1f %%", r.test.confidence * 100)});
  }
  std::puts("");
  std::fputs(shape.render().c_str(), stdout);
  std::printf("\ntotal program runs executed (batched register groups): %llu\n",
              static_cast<unsigned long long>(collector.runs_executed()));
  bench::print_counter_digest({a, b});
  return 0;
}
