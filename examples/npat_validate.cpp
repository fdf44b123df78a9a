// Example: the counter trust harness as a CLI — run the refutation kernel
// suite against a machine preset, print the per-kernel check summary and
// the event trust table, and optionally write/verify the committed golden
// counts (the sim-boundary refutation gate) or persist the TrustReport for
// downstream consumers.
//
//   npat_validate --preset=dual
//   npat_validate --preset=dual --only=chase_l3_exact,hitm_pair
//   npat_validate --preset=dual --write-golden=tests/validate/golden_dual.json
//   npat_validate --preset=dual --golden=tests/validate/golden_dual.json
//   npat_validate --preset=dual --report=trust.json --fail-on=suspect
#include <cstdio>

#include <unistd.h>

#include "sim/presets.hpp"
#include "util/ansi.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "validate/harness.hpp"
#include "validate/trust.hpp"

int main(int argc, char** argv) {
  using namespace npat;

  std::string preset = "dual";
  std::string only;
  std::string golden_path;
  std::string write_golden_path;
  std::string report_path;
  std::string fail_on = "refuted";
  bool list = false;
  bool json = false;
  bool all_rows = false;

  util::Cli cli("npat validate — counter trust harness over refutation kernels");
  cli.add_flag("preset", &preset, "machine preset (dl580, dual, uma, cube8)");
  cli.add_flag("only", &only, "comma-separated kernel names; empty = full suite");
  cli.add_flag("golden", &golden_path, "verify counters against this golden file");
  cli.add_flag("write-golden", &write_golden_path, "write golden counters and exit");
  cli.add_flag("report", &report_path, "write the TrustReport JSON here");
  cli.add_flag("fail-on", &fail_on, "exit non-zero at this tier or worse (suspect|refuted)");
  cli.add_flag("list", &list, "list suite kernels and exit");
  cli.add_flag("json", &json, "emit the TrustReport JSON to stdout");
  cli.add_flag("all-rows", &all_rows, "show exact rows in the trust table too");

  try {
    if (const auto rc = cli.parse_main(argc, argv)) return *rc;
    util::set_ansi_enabled(::isatty(STDOUT_FILENO) == 1);  // colour cues on a terminal only

    if (list) {
      for (const auto& kernel : validate::kernel_suite()) {
        std::printf("%-20s %s\n", kernel.name.c_str(), kernel.description.c_str());
      }
      return 0;
    }
    if (fail_on != "suspect" && fail_on != "refuted") {
      throw util::CliError("--fail-on must be 'suspect' or 'refuted'");
    }

    validate::SuiteOptions options;
    options.machine_name = preset;
    if (!only.empty()) {
      for (const auto& name : util::split(only, ',')) {
        options.only.push_back(util::trim(name));
      }
    }

    const auto result = validate::run_suite(sim::preset_by_name(preset), options);

    if (!write_golden_path.empty()) {
      util::write_file(write_golden_path,
                       validate::golden_from_result(result).dump(2) + "\n");
      std::fprintf(stderr, "wrote golden counts to %s\n", write_golden_path.c_str());
      return 0;
    }

    if (json) {
      std::puts(result.report.to_json().dump(2).c_str());
    } else {
      std::fputs(validate::render_suite(result).c_str(), stdout);
      std::fputs(validate::render_trust_table(result.report, all_rows).c_str(), stdout);
    }
    if (!report_path.empty()) {
      util::write_file(report_path, result.report.to_json().dump(2) + "\n");
    }

    int exit_code = 0;
    if (!golden_path.empty()) {
      const auto golden = util::Json::parse(util::read_file(golden_path));
      const auto mismatches = validate::diff_golden(result, golden);
      std::fputs(validate::render_golden_mismatches(mismatches).c_str(),
                 mismatches.empty() ? stdout : stderr);
      if (!mismatches.empty()) exit_code = 1;
    }

    const auto threshold = validate::tier_from_name(fail_on);
    if (!result.report.events_at_or_below(threshold).empty()) exit_code = 1;
    return exit_code;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "npat_validate: %s\n", error.what());
    return 1;
  }
}
