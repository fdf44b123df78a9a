// Reproduces Fig. 9: EvSel parameter regression for the parallel-sort
// micro-benchmark (Listing 3). The thread count is swept; for every event
// linear/quadratic/exponential fits are evaluated and the best fit with its
// R is reported. The paper highlights:
//   * L1 data cache locks vs threads: strong positive correlation, R > 0.95
//     (TLB page walks by the uncore + cache-line locks),
//   * retired speculative jumps vs threads: strong negative correlation,
//     R > 0.99 (the CPU cannot speculate past memory stalls).
#include <cstdio>

#include "counter_digest.hpp"
#include "evsel/regress.hpp"
#include "evsel/report.hpp"
#include "sim/presets.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workloads/parallel_sort.hpp"

int main(int argc, char** argv) {
  using namespace npat;

  i64 elements = 1 << 17;
  i64 repetitions = 3;
  std::string thread_list = "1,2,4,8,16";
  util::Cli cli("Fig. 9: EvSel correlations for the parallel sort micro-benchmark");
  cli.add_flag("elements", &elements, "array elements (uints)");
  cli.add_flag("reps", &repetitions, "repetitions per thread count");
  cli.add_flag("threads", &thread_list, "comma-separated thread counts to sweep");
  if (const auto rc = cli.parse_main(argc, argv)) return *rc;

  std::vector<double> thread_counts;
  for (const auto& token : util::split(thread_list, ',')) {
    thread_counts.push_back(std::stod(token));
  }

  evsel::Collector collector(sim::hpe_dl580_gen9(4));  // 4 sockets x 4 cores
  evsel::CollectOptions options;
  options.repetitions = static_cast<u32>(repetitions);
  // Restrict to the events of interest plus context — a full-platform sweep
  // works too but takes |groups| x longer.
  options.events = {
      sim::Event::kCycles,         sim::Event::kInstructions,
      sim::Event::kL1dLocks,       sim::Event::kSpeculativeJumpsRetired,
      sim::Event::kPageWalks,      sim::Event::kAtomicOps,
      sim::Event::kBranches,       sim::Event::kBranchMisses,
      sim::Event::kStallCyclesMem, sim::Event::kMemLoadRemoteDram,
      sim::Event::kUncQpiTxFlits,  sim::Event::kUncImcReads,
  };

  std::printf("sweeping threads over {%s}, %lld reps each...\n\n", thread_list.c_str(),
              static_cast<long long>(repetitions));

  const auto sweep = evsel::sweep(
      collector, "threads", thread_counts,
      [&](double threads) {
        workloads::ParallelSortParams params;
        params.elements = static_cast<usize>(elements);
        params.threads = static_cast<u32>(threads);
        return workloads::parallel_sort_program(params);
      },
      options);

  evsel::ReportOptions report;
  report.show_descriptions = false;
  std::fputs(evsel::render_correlations(sweep, 0.3, report).c_str(), stdout);

  // Paper-vs-measured highlight rows.
  util::Table shape({"event", "paper", "measured fit", "measured R"});
  shape.set_title("Fig. 9 shape summary (paper vs simulator)");
  const struct {
    sim::Event event;
    const char* paper;
  } kShape[] = {
      {sim::Event::kL1dLocks, "positive, R > 0.95"},
      {sim::Event::kSpeculativeJumpsRetired, "negative, R > 0.99"},
  };
  for (const auto& row : kShape) {
    const auto* correlation = sweep.correlation(row.event);
    if (correlation == nullptr) {
      shape.add_row({std::string(sim::event_name(row.event)), row.paper, "(constant)", "-"});
      continue;
    }
    shape.add_row({std::string(sim::event_name(row.event)), row.paper,
                   std::string(stats::fit_kind_name(correlation->best.kind)) + ": " +
                       correlation->best.formula(3),
                   util::format("%+.4f", correlation->best.r)});
  }
  std::puts("");
  std::fputs(shape.render().c_str(), stdout);
  std::puts("");
  bench::print_counter_digest(sweep.measurements);
  return 0;
}
