#include "profile/source_profile.hpp"

#include <gtest/gtest.h>

#include "sim/presets.hpp"
#include "workloads/cache_scan.hpp"
#include "workloads/parallel_sort.hpp"

namespace npat::profile {
namespace {

TEST(SourceProfile, RecordAndQuery) {
  SourceProfile profile;
  sim::CounterBlock delta;
  delta.add(sim::Event::kCycles, 100);
  profile.record(1, delta);
  profile.record(1, delta);
  delta.clear();
  delta.add(sim::Event::kCycles, 300);
  profile.record(2, delta);

  EXPECT_EQ(profile.count(1, sim::Event::kCycles), 200u);
  EXPECT_EQ(profile.count(2, sim::Event::kCycles), 300u);
  EXPECT_EQ(profile.count(3, sim::Event::kCycles), 0u);
  EXPECT_DOUBLE_EQ(profile.share(2, sim::Event::kCycles), 0.6);
  EXPECT_EQ(profile.regions_recorded(), 2u);
}

TEST(SourceProfile, RegionNames) {
  SourceProfile profile;
  profile.register_region(1, "fill");
  EXPECT_EQ(profile.region_name(1), "fill");
  EXPECT_EQ(profile.region_name(0), "(untagged)");
  EXPECT_EQ(profile.region_name(9), "region-9");
}

TEST(SourceProfile, AttributesCacheScanRegions) {
  sim::Machine machine(sim::uma_single_node(1));
  trace::Run run(machine);

  SourceProfile profile;
  profile.register_region(workloads::kTagFill, "fill");
  profile.register_region(workloads::kTagSum, "sum");
  profile.attach(run.runner());

  workloads::CacheScanParams params;
  params.size = 64;
  run.run(workloads::cache_scan_program(params));

  // Fill = 4096 stores, sum = 4096 loads; attribution must separate them.
  EXPECT_EQ(profile.count(workloads::kTagFill, sim::Event::kStoresRetired), 4096u);
  EXPECT_EQ(profile.count(workloads::kTagFill, sim::Event::kLoadsRetired), 0u);
  EXPECT_EQ(profile.count(workloads::kTagSum, sim::Event::kLoadsRetired), 4096u);
  EXPECT_EQ(profile.count(workloads::kTagSum, sim::Event::kStoresRetired), 0u);
}

TEST(SourceProfile, DeltasSumToCoreTotals) {
  sim::Machine machine(sim::uma_single_node(1));
  trace::Run run(machine);
  SourceProfile profile;
  profile.attach(run.runner());

  workloads::CacheScanParams params;
  params.size = 48;
  run.run(workloads::cache_scan_program(params));

  u64 attributed = 0;
  for (const u32 tag : profile.tags()) {
    attributed += profile.count(tag, sim::Event::kInstructions);
  }
  EXPECT_EQ(attributed, machine.core_counters(0)[sim::Event::kInstructions]);
}

TEST(SourceProfile, MultiThreadedSortRegions) {
  sim::Machine machine(sim::dual_socket_small(2));
  trace::Run run(machine);
  SourceProfile profile;
  profile.attach(run.runner());

  workloads::ParallelSortParams params;
  params.elements = 1 << 12;
  params.threads = 4;
  run.run(workloads::parallel_sort_program(params));

  // All three sort regions show up with cycles attributed.
  EXPECT_GT(profile.count(workloads::kSortTagFill, sim::Event::kCycles), 0u);
  EXPECT_GT(profile.count(workloads::kSortTagLocalSort, sim::Event::kCycles), 0u);
  EXPECT_GT(profile.count(workloads::kSortTagMergeTree, sim::Event::kCycles), 0u);
  // The fill region contains the LCG stores (plus one barrier-ticket
  // atomic per thread, since barrier 0 is still inside the fill region).
  EXPECT_GE(profile.count(workloads::kSortTagFill, sim::Event::kStoresRetired), 1u << 12);
  EXPECT_LE(profile.count(workloads::kSortTagFill, sim::Event::kStoresRetired),
            (1u << 12) + 4u);
}

TEST(SourceProfile, ReportRendersHotspots) {
  SourceProfile profile;
  profile.register_region(1, "hot-loop");
  profile.register_region(2, "cold-path");
  sim::CounterBlock delta;
  delta.add(sim::Event::kCycles, 9000);
  delta.add(sim::Event::kL1dMiss, 77);
  profile.record(1, delta);
  delta.clear();
  delta.add(sim::Event::kCycles, 1000);
  profile.record(2, delta);

  const std::string out = profile.report();
  EXPECT_NE(out.find("hot-loop"), std::string::npos);
  EXPECT_NE(out.find("90.0 %"), std::string::npos);
  // Sorted: hot-loop row appears before cold-path.
  EXPECT_LT(out.find("hot-loop"), out.find("cold-path"));
}

TEST(SourceProfile, NoSinkNoCost) {
  // Without attach(), tagging is a no-op and nothing is recorded.
  sim::Machine machine(sim::uma_single_node(1));
  trace::Run run(machine);
  workloads::CacheScanParams params;
  params.size = 32;
  EXPECT_NO_THROW(run.run(workloads::cache_scan_program(params)));
}

}  // namespace
}  // namespace npat::profile
