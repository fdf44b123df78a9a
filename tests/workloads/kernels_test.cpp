#include "workloads/kernels.hpp"

#include <gtest/gtest.h>

#include "sim/presets.hpp"
#include "util/check.hpp"

namespace npat::workloads {
namespace {

sim::MachineConfig quad() {
  auto config = sim::hpe_dl580_gen9(2);
  config.l3.size_bytes = MiB(2);
  config.memory.jitter_fraction = 0.0;
  return config;
}

TEST(Stream, FirstTouchHasNoRemoteTraffic) {
  sim::Machine machine(quad());
  trace::Run run(machine, {.affinity = os::AffinityPolicy::kScatter});
  StreamParams params;
  params.threads = 4;
  params.elements_per_thread = 1 << 13;
  run.run(stream_triad_program(params));
  EXPECT_EQ(machine.aggregate_counters()[sim::Event::kMemLoadRemoteDram], 0u);
}

TEST(Stream, MasterTouchIsSlowerUnderScatter) {
  auto run_with = [&](os::PagePolicy placement) {
    sim::Machine machine(quad());
    trace::Run run(machine, {.affinity = os::AffinityPolicy::kScatter});
    StreamParams params;
    params.threads = 4;
    params.elements_per_thread = 1 << 14;
    params.placement = placement;
    return run.run(stream_triad_program(params)).duration;
  };
  const Cycles local = run_with(os::PagePolicy::kFirstTouch);
  const Cycles master = run_with(os::PagePolicy::kBind);
  EXPECT_GT(master, local);
}

TEST(Stream, TriadTouchesThreeArrays) {
  sim::Machine machine(quad());
  trace::Run run(machine);
  StreamParams params;
  params.threads = 1;
  params.elements_per_thread = 1 << 12;
  params.iterations = 1;
  run.run(stream_triad_program(params));
  const auto totals = machine.aggregate_counters();
  // Per element: 2 loads + 1 store in the triad, plus 2 init stores.
  EXPECT_GE(totals[sim::Event::kLoadsRetired], 2u << 12);
  EXPECT_GE(totals[sim::Event::kStoresRetired], 3u << 12);
}

TEST(Gups, RandomUpdatesDefeatCaches) {
  sim::Machine machine(quad());
  trace::Run run(machine);
  GupsParams params;
  params.threads = 2;
  params.table_bytes = MiB(8);
  params.updates_per_thread = 20000;
  run.run(gups_program(params));
  const auto totals = machine.aggregate_counters();
  const double update_miss_rate =
      static_cast<double>(totals[sim::Event::kL3Miss]) /
      static_cast<double>(2 * params.updates_per_thread);
  EXPECT_GT(update_miss_rate, 0.3);  // 8 MiB table vs 2 MiB L3
}

TEST(Gups, InterleavedTableSpreadsPages) {
  sim::Machine machine(quad());
  trace::Run run(machine);
  GupsParams params;
  params.threads = 1;
  params.table_bytes = MiB(4);
  params.updates_per_thread = 1000;
  params.placement = os::PagePolicy::kInterleave;
  run.run(gups_program(params));
  const auto pages = run.space().pages_per_node();
  for (u32 node = 0; node < machine.nodes(); ++node) {
    EXPECT_GT(pages[node], 200u) << "node " << node;
  }
}

TEST(Kernels, InvalidParamsRejected) {
  GupsParams gups;
  gups.table_bytes = 16;
  EXPECT_THROW(gups_program(gups), CheckError);
}

}  // namespace
}  // namespace npat::workloads
