// Example: counter→code-location attribution (the paper's outlook item).
// The parallel-sort micro-benchmark is profiled region by region: its
// bodies tag the fill, local-sort and merge-tree sections, and the
// SourceProfile aggregates exact counter deltas per region — a
// perf-report-style hotspot table without sampling bias. The cost model
// (indicator-to-cost, §III-B step two) is then trained on a size sweep and
// used to predict the cycles of an unseen configuration.
#include <cstdio>

#include "evsel/collector.hpp"
#include "evsel/cost_model.hpp"
#include "profile/source_profile.hpp"
#include "sim/presets.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "workloads/parallel_sort.hpp"

int main(int argc, char** argv) {
  using namespace npat;

  i64 elements = 1 << 15;
  i64 threads = 4;
  util::Cli cli("Hotspot attribution + indicator-to-cost model demo");
  cli.add_flag("elements", &elements, "array elements (uints)");
  cli.add_flag("threads", &threads, "sort threads");
  if (const auto rc = cli.parse_main(argc, argv)) return *rc;

  // --- per-region hotspot attribution ------------------------------------
  const sim::MachineConfig config = sim::hpe_dl580_gen9(2);
  sim::Machine machine(config);
  trace::Run run(machine);

  profile::SourceProfile profile;
  profile.register_region(workloads::kSortTagFill, "lcg-fill (Listing 3)");
  profile.register_region(workloads::kSortTagLocalSort, "local merge sort");
  profile.register_region(workloads::kSortTagMergeTree, "parallel merge tree");
  profile.attach(run.runner());

  workloads::ParallelSortParams params;
  params.elements = static_cast<usize>(elements);
  params.threads = static_cast<u32>(threads);
  run.run(workloads::parallel_sort_program(params));

  std::fputs(profile
                 .report({sim::Event::kCycles, sim::Event::kInstructions,
                          sim::Event::kBranchMisses, sim::Event::kL1dMiss,
                          sim::Event::kStallCyclesTotal, sim::Event::kAtomicOps})
                 .c_str(),
             stdout);

  // --- two-step strategy, step 2: indicator-to-cost -----------------------
  std::puts("\ntraining an indicator-to-cost model on a size sweep...");
  evsel::Collector collector(config);
  evsel::CollectOptions options;
  options.repetitions = 2;
  // Non-collinear features only (branch misses track instructions 1:1 in a
  // sort, and the barrier atomics are size-independent).
  options.events = {sim::Event::kCycles, sim::Event::kInstructions,
                    sim::Event::kL1dMiss, sim::Event::kStallCyclesMem};

  std::vector<evsel::Measurement> training;
  for (usize size : {4096u, 8192u, 12288u, 16384u, 24576u, 32768u, 49152u, 65536u}) {
    workloads::ParallelSortParams p;
    p.elements = size;
    p.threads = static_cast<u32>(threads);
    training.push_back(collector.measure(
        "n" + std::to_string(size),
        [p] { return workloads::parallel_sort_program(p); }, options));
  }
  const auto model = evsel::CostModel::train(training);
  if (!model) {
    std::puts("model training failed (degenerate inputs)");
    return 1;
  }
  std::fputs(model->describe().c_str(), stdout);

  workloads::ParallelSortParams unseen;
  unseen.elements = 1 << 17;
  unseen.threads = static_cast<u32>(threads);
  const auto target = collector.measure(
      "n131072", [unseen] { return workloads::parallel_sort_program(unseen); }, options);
  const double predicted = model->predict(target);
  const double actual = target.mean(sim::Event::kCycles);
  std::printf("\npredicted cycles for 2x-unseen size: %s, measured: %s (error %+.1f %%)\n",
              util::si_scaled(predicted).c_str(), util::si_scaled(actual).c_str(),
              (predicted / actual - 1.0) * 100.0);
  return 0;
}
