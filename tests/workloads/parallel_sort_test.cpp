#include "workloads/parallel_sort.hpp"

#include <gtest/gtest.h>

#include "sim/presets.hpp"
#include "util/check.hpp"

namespace npat::workloads {
namespace {

struct SortOutcome {
  sim::CounterBlock counters;
  Cycles duration = 0;
  std::vector<u64> node_pages;
};

SortOutcome run_sort(usize elements, u32 threads) {
  sim::Machine machine(sim::hpe_dl580_gen9(4));
  trace::Run run(machine);
  ParallelSortParams params;
  params.elements = elements;
  params.threads = threads;
  const auto result = run.run(parallel_sort_program(params));
  return SortOutcome{machine.aggregate_counters(), result.duration, run.space().pages_per_node()};
}

TEST(ParallelSort, DataLandsOnFillingThreadsNode) {
  // Listing 3 fills sequentially from the main thread: first touch places
  // the whole data array on its node. Remote nodes only acquire the pages
  // their threads first-touch themselves (scratch ranges, barrier lines) —
  // a small minority.
  const auto outcome = run_sort(1 << 14, 8);
  u64 total = 0;
  for (u64 pages : outcome.node_pages) total += pages;
  ASSERT_GT(total, 0u);
  EXPECT_GT(static_cast<double>(outcome.node_pages[0]) / static_cast<double>(total), 0.6);
}

TEST(ParallelSort, MoreThreadsFinishFaster) {
  const auto t1 = run_sort(1 << 14, 1);
  const auto t8 = run_sort(1 << 14, 8);
  EXPECT_LT(t8.duration, t1.duration);
}

TEST(ParallelSort, ComparisonBranchesMispredictHeavily) {
  const auto outcome = run_sort(1 << 14, 2);
  const double miss_rate =
      static_cast<double>(outcome.counters[sim::Event::kBranchMisses]) /
      static_cast<double>(outcome.counters[sim::Event::kBranches]);
  // Pseudo-random comparisons: the predictor cannot do much.
  EXPECT_GT(miss_rate, 0.25);
}

TEST(ParallelSort, AtomicsGrowWithThreads) {
  const auto t2 = run_sort(1 << 13, 2);
  const auto t8 = run_sort(1 << 13, 8);
  EXPECT_GT(t8.counters[sim::Event::kAtomicOps], t2.counters[sim::Event::kAtomicOps]);
  EXPECT_GT(t8.counters[sim::Event::kL1dLocks], t2.counters[sim::Event::kL1dLocks]);
}

TEST(ParallelSort, SpeculativeJumpsShrinkWithThreads) {
  // The Fig. 9 signature at workload level.
  const auto t1 = run_sort(1 << 15, 1);
  const auto t16 = run_sort(1 << 15, 16);
  EXPECT_LT(t16.counters[sim::Event::kSpeculativeJumpsRetired],
            t1.counters[sim::Event::kSpeculativeJumpsRetired]);
}

TEST(ParallelSort, WorkAlmostThreadIndependent) {
  // Total comparisons vary only through chunk rounding.
  const auto t1 = run_sort(1 << 14, 1);
  const auto t4 = run_sort(1 << 14, 4);
  const double ratio = static_cast<double>(t4.counters[sim::Event::kBranches]) /
                       static_cast<double>(t1.counters[sim::Event::kBranches]);
  EXPECT_NEAR(ratio, 1.0, 0.1);
}

TEST(ParallelSort, InvalidParamsRejected) {
  ParallelSortParams params;
  params.threads = 0;
  EXPECT_THROW(parallel_sort_program(params), CheckError);
  params.threads = 64;
  params.elements = 16;
  EXPECT_THROW(parallel_sort_program(params), CheckError);
}

}  // namespace
}  // namespace npat::workloads
