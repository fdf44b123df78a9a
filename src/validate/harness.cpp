#include "validate/harness.hpp"

#include <algorithm>
#include <cmath>

#include "os/vm.hpp"
#include "trace/runner.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace npat::validate {

namespace {

bool wanted(const SuiteOptions& options, const std::string& name) {
  if (options.only.empty()) return true;
  return std::find(options.only.begin(), options.only.end(), name) != options.only.end();
}

}  // namespace

CheckOutcome classify_check(sim::Event event, double measured, double lo, double hi,
                            double refute_factor) {
  CheckOutcome outcome;
  outcome.event = event;
  outcome.measured = measured;
  outcome.lo = lo;
  outcome.hi = hi;
  const double midpoint = (lo + hi) / 2;
  outcome.ratio = midpoint > 0 ? measured / midpoint : measured;

  if (measured >= lo && measured <= hi) {
    outcome.tier = lo == hi ? TrustTier::kExact : TrustTier::kBounded;
    return outcome;
  }
  // Distance from the violated bound, floored at half a count so that a
  // nonzero measurement against an exact-zero expectation still refutes.
  const double over = measured > hi ? measured / std::max(hi, 0.5)
                                    : lo / std::max(measured, 0.5);
  outcome.tier =
      over >= refute_factor - 1e-9 ? TrustTier::kRefuted : TrustTier::kSuspect;
  return outcome;
}

usize KernelRun::failed_checks() const noexcept {
  usize n = 0;
  for (const CheckOutcome& c : checks) {
    if (!c.passed()) ++n;
  }
  return n;
}

usize SuiteResult::checks_run() const noexcept {
  usize n = 0;
  for (const KernelRun& run : runs) n += run.checks.size();
  return n;
}

usize SuiteResult::checks_failed() const noexcept {
  usize n = 0;
  for (const KernelRun& run : runs) n += run.failed_checks();
  return n;
}

SuiteResult run_suite(const sim::MachineConfig& base, const SuiteOptions& options) {
  // Resolve explicit kernel selections first so typos hard-error instead
  // of silently validating nothing.
  for (const std::string& name : options.only) kernel_by_name(name);

  SuiteResult result;
  result.report.machine = options.machine_name;

  for (const KernelSpec& spec : kernel_suite()) {
    if (!wanted(options, spec.name)) continue;

    KernelRun run;
    run.name = spec.name;
    if (base.topology.nodes < spec.min_nodes) {
      run.skipped = true;
      run.skip_reason = util::format("needs %u nodes, machine has %u", spec.min_nodes,
                                     base.topology.nodes);
      result.runs.push_back(std::move(run));
      continue;
    }

    sim::MachineConfig config = base;
    if (spec.prepare) spec.prepare(config);

    sim::Machine machine(config);
    trace::Run sim_run(machine, {.affinity = spec.affinity, .seed = options.runner_seed});

    if (spec.arm) spec.arm(machine);
    sim_run.run(spec.make_program());
    if (spec.post) spec.post(machine);

    run.counters = machine.aggregate_counters();
    for (const Expectation& expect : spec.expects(config)) {
      const double measured = static_cast<double>(run.counters[expect.event]);
      CheckOutcome outcome = classify_check(expect.event, measured, expect.lo, expect.hi,
                                            options.refute_factor);
      EventTrust trust;
      trust.event = outcome.event;
      trust.tier = outcome.tier;
      trust.kernel = spec.name;
      trust.observed_ratio = outcome.ratio;
      trust.measured = outcome.measured;
      trust.expected = (expect.lo + expect.hi) / 2;
      trust.checks = 1;
      result.report.record(trust);
      run.checks.push_back(outcome);
    }
    result.report.kernels.push_back(spec.name);
    result.runs.push_back(std::move(run));
  }
  return result;
}

std::string render_suite(const SuiteResult& result) {
  util::Table table({"kernel", "checks", "exact", "bounded", "suspect", "refuted", "note"});
  table.set_title(util::format("refutation kernels: %zu checks, %zu failed",
                               result.checks_run(), result.checks_failed()));
  for (u32 column = 1; column <= 5; ++column) table.set_align(column, util::Align::kRight);

  for (const KernelRun& run : result.runs) {
    if (run.skipped) {
      table.add_styled_row({{run.name, util::Style::kDim},
                            {"-", util::Style::kDim},
                            {"-", util::Style::kDim},
                            {"-", util::Style::kDim},
                            {"-", util::Style::kDim},
                            {"-", util::Style::kDim},
                            {"skipped: " + run.skip_reason, util::Style::kDim}});
      continue;
    }
    usize per_tier[4] = {0, 0, 0, 0};
    for (const CheckOutcome& check : run.checks) {
      ++per_tier[static_cast<usize>(check.tier)];
    }
    const bool failing = per_tier[2] + per_tier[3] > 0;
    const util::Style style = failing ? util::Style::kRed : util::Style::kNone;
    table.add_styled_row({{run.name, style},
                          {std::to_string(run.checks.size()), style},
                          {std::to_string(per_tier[0]), style},
                          {std::to_string(per_tier[1]), style},
                          {std::to_string(per_tier[2]), style},
                          {std::to_string(per_tier[3]), style},
                          {failing ? "FAIL" : "ok", style}});
  }
  return table.render();
}

util::Json golden_from_result(const SuiteResult& result) {
  util::JsonObject doc;
  doc["machine"] = result.report.machine;
  util::JsonObject kernels;
  for (const KernelRun& run : result.runs) {
    util::JsonObject entry;
    entry["skipped"] = run.skipped;
    util::JsonObject counters;
    if (!run.skipped) {
      for (const auto& info : sim::all_events()) {
        const u64 value = run.counters[info.event];
        if (value != 0) counters[std::string(info.name)] = static_cast<double>(value);
      }
    }
    entry["counters"] = std::move(counters);
    kernels[run.name] = std::move(entry);
  }
  doc["kernels"] = std::move(kernels);
  return util::Json(std::move(doc));
}

std::vector<GoldenMismatch> diff_golden(const SuiteResult& result, const util::Json& golden) {
  const util::Json* kernels = golden.find("kernels");
  NPAT_CHECK_MSG(kernels != nullptr, "golden file has no 'kernels' object");
  NPAT_CHECK_MSG(kernels->as_object().size() == result.runs.size(),
                 "golden file covers a different kernel set than this run");

  std::vector<GoldenMismatch> mismatches;
  for (const KernelRun& run : result.runs) {
    const util::Json* entry = kernels->find(run.name);
    NPAT_CHECK_MSG(entry != nullptr, "golden file is missing kernel: " + run.name);
    const bool golden_skipped = entry->get_bool("skipped");
    NPAT_CHECK_MSG(golden_skipped == run.skipped,
                   "golden skip status differs for kernel: " + run.name);
    if (run.skipped) continue;

    const util::Json* counters = entry->find("counters");
    NPAT_CHECK_MSG(counters != nullptr,
                   "golden file has no counters for kernel: " + run.name);
    for (const auto& [name, value] : counters->as_object()) {
      NPAT_CHECK_MSG(sim::event_by_name(name).has_value(),
                     "golden file names unknown event: " + name);
      (void)value;
    }
    for (const auto& info : sim::all_events()) {
      const u64 measured = run.counters[info.event];
      const util::Json* cell = counters->find(std::string(info.name));
      const u64 expected = cell ? static_cast<u64>(cell->as_number()) : 0;
      if (measured != expected) {
        mismatches.push_back({run.name, info.event, measured, expected});
      }
    }
  }
  return mismatches;
}

std::string render_golden_mismatches(const std::vector<GoldenMismatch>& mismatches) {
  if (mismatches.empty()) return "golden counts match\n";
  util::Table table({"kernel", "event", "measured", "golden"});
  table.set_title(util::format("golden drift: %zu counters moved", mismatches.size()));
  table.set_align(2, util::Align::kRight);
  table.set_align(3, util::Align::kRight);
  for (const GoldenMismatch& m : mismatches) {
    table.add_styled_row({{m.kernel, util::Style::kRed},
                          {std::string(sim::event_name(m.event)), util::Style::kRed},
                          {std::to_string(m.measured), util::Style::kRed},
                          {std::to_string(m.expected), util::Style::kRed}});
  }
  return table.render();
}

}  // namespace npat::validate
