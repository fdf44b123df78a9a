// Example: a `perf stat` command-line clone over the toolkit — run a named
// workload on a chosen machine preset and print counter statistics, with
// optional event selection (by registry name), CPU restriction, and
// repetition statistics. Demonstrates the perf layer exactly as a CLI tool
// would consume it.
//
//   npat_stat --workload=sort --threads=8 --events=cpu.cycles,l1d.replacement
//   npat_stat --workload=scan --preset=dual --cpus=0,1 --reps=5
#include <cstdio>

#include <unistd.h>

#include "evsel/collector.hpp"
#include "evsel/report.hpp"
#include "perf/registry.hpp"
#include "sim/presets.hpp"
#include "util/ansi.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "workloads/cache_scan.hpp"
#include "workloads/kernels.hpp"
#include "workloads/mlc_remote.hpp"
#include "workloads/parallel_sort.hpp"
#include "workloads/rampup_app.hpp"
#include "workloads/sift_like.hpp"

namespace {

using namespace npat;

evsel::ProgramFactory workload_by_name(const std::string& name, u32 threads) {
  if (name == "scan") {
    workloads::CacheScanParams params;
    params.size = 512;
    return [params] { return workloads::cache_scan_program(params); };
  }
  if (name == "scan-strided") {
    workloads::CacheScanParams params;
    params.size = 512;
    params.variant = workloads::ScanVariant::kRowStride;
    return [params] { return workloads::cache_scan_program(params); };
  }
  if (name == "sort") {
    workloads::ParallelSortParams params;
    params.elements = 1 << 15;
    params.threads = threads;
    return [params] { return workloads::parallel_sort_program(params); };
  }
  if (name == "sift") {
    workloads::SiftLikeParams params;
    params.threads = threads;
    params.tile_bytes = 512 * 1024;
    return [params] { return workloads::sift_like_program(params); };
  }
  if (name == "mlc") {
    workloads::MlcParams params;
    params.buffer_bytes = MiB(8);
    params.chase_steps = 100000;
    return [params] { return workloads::mlc_program(params); };
  }
  if (name == "stream") {
    workloads::StreamParams params;
    params.threads = threads;
    return [params] { return workloads::stream_triad_program(params); };
  }
  if (name == "rampup") {
    workloads::RampupParams params;
    return [params] { return workloads::rampup_app_program(params); };
  }
  if (name == "gups") {
    workloads::GupsParams params;
    params.threads = threads;
    return [params] { return workloads::gups_program(params); };
  }
  throw util::CliError("unknown workload: " + name +
                       " (try scan, scan-strided, sort, sift, mlc, stream, rampup, gups)");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload = "scan";
  std::string preset = "dl580";
  std::string events;
  i64 threads = 4;
  i64 repetitions = 3;
  bool list_events = false;
  bool json = false;

  util::Cli cli("npat stat — perf-stat-style counter statistics for a workload");
  cli.add_flag("workload", &workload,
               "scan | scan-strided | sort | sift | mlc | stream | rampup | gups");
  cli.add_flag("preset", &preset, "machine preset (dl580, dual, uma, cube8)");
  cli.add_flag("events", &events, "comma-separated event names; empty = all");
  cli.add_flag("threads", &threads, "worker threads for parallel workloads");
  cli.add_flag("reps", &repetitions, "repetitions");
  cli.add_flag("list-events", &list_events, "list available events and exit");
  cli.add_flag("json", &json, "emit JSON instead of a table");

  try {
    if (const auto rc = cli.parse_main(argc, argv)) return *rc;
    util::set_ansi_enabled(::isatty(STDOUT_FILENO) == 1);  // colour cues on a terminal only

    if (list_events) {
      for (const auto& info : sim::all_events()) {
        std::printf("%-34s %-7s %s\n", std::string(info.name).c_str(),
                    std::string(info.category).c_str(),
                    std::string(info.description).substr(0, 80).c_str());
      }
      return 0;
    }

    evsel::CollectOptions options;
    options.repetitions = static_cast<u32>(repetitions);
    if (!events.empty()) {
      for (const auto& name : util::split(events, ',')) {
        const auto event = sim::event_by_name(util::trim(name));
        if (!event) throw util::CliError("unknown event: " + name);
        options.events.push_back(*event);
      }
    }

    evsel::Collector collector(sim::preset_by_name(preset));
    const auto factory = workload_by_name(workload, static_cast<u32>(threads));

    const auto groups = perf::plan_event_groups(
        options.events.empty() ? perf::available_events() : options.events);
    std::fprintf(stderr, "measuring '%s' on %s: %lld reps x %zu register groups...\n",
                 workload.c_str(), preset.c_str(), static_cast<long long>(repetitions),
                 groups.size());

    const auto measurement = collector.measure(workload, factory, options);
    if (json) {
      std::puts(measurement.to_json().dump(2).c_str());
    } else {
      std::fputs(evsel::render_measurement(measurement).c_str(), stdout);
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "npat_stat: %s\n", error.what());
    return 1;
  }
}
