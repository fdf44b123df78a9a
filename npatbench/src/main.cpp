// npatbench: the toolkit's benchmark. Runs one workload for a time budget
// and prints every metric by name with its unit; the last line of standard
// output is the JSON result. Exits non-zero when any correctness check
// fails. `run.py` beside this package builds and invokes it.
#include <cstdio>
#include <exception>
#include <string>

#include "bench.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

int main(int argc, char** argv) {
  using namespace npatbench;

  std::string workload;
  npat::i64 seed = static_cast<npat::i64>(kDefaultSeed);
  double seconds = 10.0;
  npat::i64 trace = 0;
  std::string expected_path;
  std::string trace_out;
  std::string write_expected;
  npat::util::Cli cli("npatbench: end-to-end and per-layer benchmark of the npat toolkit");
  cli.add_flag("workload", &workload, "scan_compare | sort_sweep | fleet_ingest");
  cli.add_flag("seed", &seed, "workload seed (the committed expectations use the default)");
  cli.add_flag("seconds", &seconds, "measuring time budget");
  cli.add_flag("trace", &trace, "0 = end-to-end metrics, 1 = traced per-layer metrics");
  cli.add_flag("expected", &expected_path, "committed exact results to check against");
  cli.add_flag("trace-out", &trace_out, "file for the traced run's spans (Chrome trace JSON)");
  cli.add_flag("write-expected", &write_expected,
               "record the exact results at --seed into this file and exit");
  if (const auto rc = cli.parse_main(argc, argv)) return *rc;

  try {
    if (seed < 0 || (trace != 0 && trace != 1)) {
      std::fprintf(stderr, "npatbench: --seed must be >= 0 and --trace 0 or 1\n");
      return 2;
    }
    if (!write_expected.empty()) {
      npat::util::write_file(write_expected,
                             record_expectations(static_cast<u64>(seed)).dump(2) + "\n");
      std::printf("wrote %s\n", write_expected.c_str());
      return 0;
    }
    RunOptions options;
    options.workload = workload;
    options.seed = static_cast<u64>(seed);
    options.seconds = seconds;
    options.trace = trace == 1;
    if (!expected_path.empty()) {
      options.expected = npat::util::Json::parse(npat::util::read_file(expected_path));
    }
    const RunReport report = run_benchmark(options);
    if (!trace_out.empty() && !report.trace_json.empty()) {
      npat::util::write_file(trace_out, report.trace_json);
    }
    for (const Metric& metric : report.metrics.all()) {
      std::printf("%-40s %18.6f %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
    }
    for (const std::string& note : report.notes) std::printf("# %s\n", note.c_str());
    std::printf("%s\n", result_json(report.checks, report.metrics).c_str());
    return report.checks.failed() == 0 ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "npatbench: %s\n", error.what());
    return 2;
  }
}
