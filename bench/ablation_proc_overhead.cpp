// Ablation for npat::proc: what does per-task attribution cost on top of
// node-only monitoring? Task accounting is pure bookkeeping — every
// scheduler slice folds the outgoing thread's counter deltas into its
// (pid, tid) domain — so the simulated timeline must stay bit-identical;
// the only acceptable cost is host wall time. The bench runs the same
// parallel sort twice per round (node-only Sampler vs Sampler +
// TaskSampler with task_accounting on), interleaved so ambient load hits
// both legs alike, and takes the best round per leg. Acceptance: <= 5%
// added wall time, and a per-slice update cost small enough to explain it.
//
// Results land in BENCH_proc.json next to the working directory so CI can
// archive the numbers alongside the pass/fail gate.
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "monitor/sampler.hpp"
#include "monitor/task_sampler.hpp"
#include "sim/presets.hpp"
#include "trace/runner.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workloads/parallel_sort.hpp"

namespace {

using namespace npat;

trace::Program make_workload(u32 threads, u32 elements_log2) {
  workloads::ParallelSortParams params;
  params.elements = 1u << elements_log2;
  params.threads = threads;
  return workloads::parallel_sort_program(params);
}

struct RunStats {
  Cycles duration = 0;
  u64 slices = 0;
  u64 node_samples = 0;
  u64 task_samples = 0;
  double wall_ms = 0.0;
};

RunStats run_once(bool tasks, u32 threads, u32 elements_log2, Cycles period) {
  sim::Machine machine(sim::dual_socket_small(2));
  trace::Run run(machine, {.task_accounting = tasks});

  monitor::SamplerConfig node_config;
  node_config.period = period;
  monitor::Sampler node_sampler(machine, run.space(), node_config);
  node_sampler.attach(run.runner());

  monitor::TaskSamplerConfig task_config;
  task_config.period = period;
  monitor::TaskSampler task_sampler(machine, task_config);
  if (tasks) task_sampler.attach(run.runner());

  const auto start = std::chrono::steady_clock::now();
  const auto result = run.run(make_workload(threads, elements_log2));
  const auto stop = std::chrono::steady_clock::now();

  RunStats stats;
  stats.duration = result.duration;
  stats.slices = result.scheduler_slices;
  stats.node_samples = node_sampler.samples_taken();
  stats.task_samples = task_sampler.samples_taken();
  stats.wall_ms = std::chrono::duration<double, std::milli>(stop - start).count();
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  i64 threads = 4;
  i64 elements_log2 = 15;
  i64 rounds = 5;
  i64 period = 100000;
  double budget_percent = 5.0;
  std::string out = "BENCH_proc.json";

  util::Cli cli("Ablation: wall-time cost of per-task attribution vs node-only monitoring");
  cli.add_flag("threads", &threads, "sort worker threads");
  cli.add_flag("elements-log2", &elements_log2, "log2 of elements to sort");
  cli.add_flag("rounds", &rounds, "interleaved timing rounds per leg");
  cli.add_flag("period", &period, "sampling period in cycles, both legs");
  cli.add_flag("budget", &budget_percent, "maximum acceptable wall overhead in percent");
  cli.add_flag("out", &out, "path for the BENCH_proc.json report");
  if (const auto rc = cli.parse_main(argc, argv)) return *rc;
  if (rounds <= 0 || threads <= 0 || elements_log2 < 8 || elements_log2 > 24) {
    std::fprintf(stderr, "implausible --rounds/--threads/--elements-log2\n");
    return 1;
  }

  const u32 workers = static_cast<u32>(threads);
  const u32 log2 = static_cast<u32>(elements_log2);
  const Cycles sample_period = static_cast<Cycles>(period);

  // Warm up both legs once (page cache, allocator, branch predictors of the
  // *host*), then interleave timed rounds and keep the per-leg minimum.
  RunStats base = run_once(false, workers, log2, sample_period);
  RunStats task = run_once(true, workers, log2, sample_period);
  for (i64 round = 0; round < rounds; ++round) {
    const RunStats b = run_once(false, workers, log2, sample_period);
    const RunStats t = run_once(true, workers, log2, sample_period);
    base.wall_ms = std::min(base.wall_ms, b.wall_ms);
    task.wall_ms = std::min(task.wall_ms, t.wall_ms);
    base.duration = b.duration;
    task.duration = t.duration;
    task.slices = t.slices;
    task.task_samples = t.task_samples;
  }

  const bool identical = base.duration == task.duration;
  const double overhead =
      base.wall_ms > 0.0 ? 100.0 * (task.wall_ms - base.wall_ms) / base.wall_ms : 0.0;
  const double per_slice_ns =
      task.slices > 0 ? 1e6 * (task.wall_ms - base.wall_ms) / static_cast<double>(task.slices)
                      : 0.0;
  const double frames_per_sec =
      task.wall_ms > 0.0 ? 1e3 * static_cast<double>(task.task_samples) / task.wall_ms : 0.0;
  const bool within_budget = overhead <= budget_percent;
  const bool pass = within_budget && identical;

  util::Table table({"Leg", "Sim duration", "Slices", "Task samples", "Wall (best round)"});
  for (usize column = 1; column <= 4; ++column) table.set_align(column, util::Align::kRight);
  table.set_title(util::format("proc overhead: %u-thread sort of 2^%u elements, period %lld",
                               workers, log2, static_cast<long long>(period)));
  table.add_row({"node-only", util::format("%llu", static_cast<unsigned long long>(base.duration)),
                 util::format("%llu", static_cast<unsigned long long>(base.slices)),
                 "0", util::format("%.3f ms", base.wall_ms)});
  table.add_row({"node+task", util::format("%llu", static_cast<unsigned long long>(task.duration)),
                 util::format("%llu", static_cast<unsigned long long>(task.slices)),
                 util::format("%llu", static_cast<unsigned long long>(task.task_samples)),
                 util::format("%.3f ms", task.wall_ms)});
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nsim duration: %s; wall overhead %+.2f%% (budget %.1f%%), "
              "%.1f ns per scheduler slice: %s\n",
              identical ? "bit-identical (PASS)" : "PERTURBED (FAIL)", overhead,
              budget_percent, per_slice_ns, within_budget ? "PASS" : "FAIL");

  util::JsonObject report;
  report["bench"] = "ablation_proc_overhead";
  report["threads"] = static_cast<u64>(workers);
  report["elements"] = static_cast<u64>(1u << log2);
  report["rounds"] = static_cast<u64>(rounds);
  report["period_cycles"] = static_cast<u64>(sample_period);
  report["node_only_wall_ms"] = base.wall_ms;
  report["task_wall_ms"] = task.wall_ms;
  report["overhead_percent"] = overhead;
  report["budget_percent"] = budget_percent;
  report["scheduler_slices"] = task.slices;
  report["per_slice_cost_ns"] = per_slice_ns;
  report["task_samples"] = task.task_samples;
  report["task_frames_per_sec"] = frames_per_sec;
  report["sim_duration_identical"] = identical;
  report["pass"] = pass;
  util::write_file(out, util::Json(std::move(report)).dump(2) + "\n");
  std::printf("wrote %s\n", out.c_str());

  return pass ? 0 : 1;
}
