#include "workloads/cache_scan.hpp"

#include <gtest/gtest.h>

#include "sim/presets.hpp"
#include "util/check.hpp"

namespace npat::workloads {
namespace {

struct RunOutcome {
  sim::CounterBlock counters;
  Cycles duration = 0;
};

RunOutcome run_scan(const CacheScanParams& params) {
  sim::Machine machine(sim::hpe_dl580_gen9(1));
  trace::Run run(machine);
  const auto result = run.run(cache_scan_program(params));
  return RunOutcome{machine.aggregate_counters(), result.duration};
}

CacheScanParams small(ScanVariant variant) {
  CacheScanParams params;
  params.size = 256;
  params.variant = variant;
  params.fill_phase = false;
  return params;
}

TEST(CacheScan, LoadCountMatchesArraySize) {
  const auto outcome = run_scan(small(ScanVariant::kUnitStride));
  EXPECT_EQ(outcome.counters[sim::Event::kLoadsRetired], 256u * 256u);
  EXPECT_EQ(outcome.counters[sim::Event::kBranches], 256u * 256u);
}

TEST(CacheScan, FillPhaseAddsStores) {
  CacheScanParams params = small(ScanVariant::kUnitStride);
  params.fill_phase = true;
  const auto outcome = run_scan(params);
  EXPECT_EQ(outcome.counters[sim::Event::kStoresRetired], 256u * 256u);
}

TEST(CacheScan, RowStrideMissesFarMore) {
  const auto unit = run_scan(small(ScanVariant::kUnitStride));
  const auto strided = run_scan(small(ScanVariant::kRowStride));
  // Unit stride misses ~1/16 accesses; a 1 KiB-row stride (256 floats)
  // thrashes the L1 sets.
  EXPECT_GT(strided.counters[sim::Event::kL1dMiss],
            8 * unit.counters[sim::Event::kL1dMiss]);
}

TEST(CacheScan, RowStrideIsSlower) {
  const auto unit = run_scan(small(ScanVariant::kUnitStride));
  const auto strided = run_scan(small(ScanVariant::kRowStride));
  EXPECT_GT(strided.duration, unit.duration);
}

TEST(CacheScan, UnitStridePrefetchesIntoL2) {
  const auto unit = run_scan(small(ScanVariant::kUnitStride));
  EXPECT_GT(unit.counters[sim::Event::kL2PrefetchRequests], 1000u);
}

TEST(CacheScan, FullSizeRowStrideUsesL3Streamer) {
  // At the paper's 1024 size the row stride is a whole page, beyond the
  // L2 prefetcher's reach.
  CacheScanParams params = small(ScanVariant::kRowStride);
  params.size = 1024;
  const auto outcome = run_scan(params);
  EXPECT_GT(outcome.counters[sim::Event::kL3PrefetchRequests],
            outcome.counters[sim::Event::kL2PrefetchRequests]);
  EXPECT_GT(outcome.counters[sim::Event::kFillBufferRejects], 10000u);
}

TEST(CacheScan, PhaseMarksEmitted) {
  sim::Machine machine(sim::hpe_dl580_gen9(1));
  trace::Run run(machine);
  const auto result = run.run(cache_scan_program(small(ScanVariant::kUnitStride)));
  ASSERT_EQ(result.phase_marks.size(), 2u);
  EXPECT_EQ(result.phase_marks[0].id, 1u);
  EXPECT_EQ(result.phase_marks[1].id, 2u);
}

TEST(CacheScan, TooSmallRejected) {
  CacheScanParams params;
  params.size = 4;
  EXPECT_THROW(cache_scan_program(params), CheckError);
}

}  // namespace
}  // namespace npat::workloads
