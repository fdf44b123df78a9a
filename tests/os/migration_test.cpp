#include <gtest/gtest.h>

#include <memory>

#include "os/vm.hpp"
#include "sim/presets.hpp"
#include "trace/runner.hpp"
#include "util/check.hpp"

namespace npat::os {
namespace {

sim::Topology topo() { return sim::make_fully_connected(2, 2); }

TEST(NumaBalancing, OffByDefault) {
  const auto topology = topo();
  AddressSpace space(topology);
  EXPECT_FALSE(space.numa_balancing_enabled());
  const VirtAddr base = space.allocate(kPageBytes);
  space.translate(base, 0);
  for (int i = 0; i < 100; ++i) space.translate(base, 1);
  EXPECT_EQ(space.pages_migrated(), 0u);
  EXPECT_EQ(sim::node_of_paddr(*space.peek(base)), 0u);
}

TEST(NumaBalancing, MigratesAfterThresholdRemoteTouches) {
  const auto topology = topo();
  AddressSpace space(topology);
  space.enable_numa_balancing(4);
  const VirtAddr base = space.allocate(kPageBytes);
  space.translate(base, 0);  // first touch: node 0
  for (int i = 0; i < 3; ++i) space.translate(base, 1);
  EXPECT_EQ(space.pages_migrated(), 0u);  // streak below threshold
  space.translate(base, 1);               // 4th remote touch
  EXPECT_EQ(space.pages_migrated(), 1u);
  EXPECT_EQ(sim::node_of_paddr(*space.peek(base)), 1u);
  EXPECT_EQ(space.pages_per_node()[0], 0u);
  EXPECT_EQ(space.pages_per_node()[1], 1u);
}

TEST(NumaBalancing, LocalTouchResetsStreak) {
  const auto topology = topo();
  AddressSpace space(topology);
  space.enable_numa_balancing(4);
  const VirtAddr base = space.allocate(kPageBytes);
  space.translate(base, 0);
  for (int round = 0; round < 10; ++round) {
    space.translate(base, 1);
    space.translate(base, 1);
    space.translate(base, 1);
    space.translate(base, 0);  // owner keeps touching: no migration
  }
  EXPECT_EQ(space.pages_migrated(), 0u);
}

TEST(NumaBalancing, MixedRemoteNodesRestartStreak) {
  const auto topology = sim::make_fully_connected(4, 1);
  AddressSpace space(topology);
  space.enable_numa_balancing(4);
  const VirtAddr base = space.allocate(kPageBytes);
  space.translate(base, 0);
  // Alternating remote nodes never accumulate a single-node streak.
  for (int i = 0; i < 20; ++i) space.translate(base, 1 + (i % 3));
  EXPECT_EQ(space.pages_migrated(), 0u);
}

TEST(NumaBalancing, HooksFire) {
  const auto topology = topo();
  AddressSpace space(topology);
  space.enable_numa_balancing(2);
  usize unmaps = 0;
  std::vector<std::pair<sim::NodeId, sim::NodeId>> migrations;
  space.on_unmap = [&](u64) { ++unmaps; };
  space.on_migrate = [&](u64, sim::NodeId from, sim::NodeId to) {
    migrations.emplace_back(from, to);
  };
  const VirtAddr base = space.allocate(kPageBytes);
  space.translate(base, 0);
  space.translate(base, 1);
  space.translate(base, 1);
  ASSERT_EQ(migrations.size(), 1u);
  EXPECT_EQ(migrations[0], (std::pair<sim::NodeId, sim::NodeId>{0, 1}));
  EXPECT_EQ(unmaps, 1u);  // TLB shootdown went out
}

TEST(NumaBalancing, ZeroThresholdRejected) {
  const auto topology = topo();
  AddressSpace space(topology);
  EXPECT_THROW(space.enable_numa_balancing(0), CheckError);
}

TEST(NumaBalancing, EndToEndRemoteLoadsBecomeLocal) {
  // A thread on node 1 hammers data first-touched on node 0: with
  // balancing the pages migrate and remote loads taper off.
  auto config = sim::dual_socket_small(2);
  config.l3.size_bytes = KiB(256);
  config.memory.jitter_fraction = 0.0;

  auto run = [&](bool balancing) {
    sim::Machine machine(config);
    trace::Run trial(machine, {.affinity = AffinityPolicy::kScatter});  // thread 1 -> node 1
    if (balancing) trial.space().enable_numa_balancing(2);

    auto shared = std::make_shared<VirtAddr>(0);
    auto body = [shared](trace::ThreadContext& ctx) -> trace::SimTask {
      constexpr usize kBytes = 512 * 1024;
      if (ctx.index() == 0) {
        *shared = ctx.alloc(kBytes);
        for (usize i = 0; i < kBytes / kPageBytes; ++i) {
          co_await ctx.store(*shared + i * kPageBytes);  // first touch node 0
        }
      }
      co_await ctx.barrier(0);
      if (ctx.index() == 1) {
        // Random accesses defeat the prefetchers, so misses genuinely hit
        // DRAM and the remote/local distinction is visible.
        const usize lines = kBytes / kCacheLineBytes;
        for (int i = 0; i < 40000; ++i) {
          co_await ctx.load(*shared + ctx.rng().below(lines) * kCacheLineBytes);
        }
      }
      co_await ctx.barrier(1);
    };
    trial.run(trace::Program::homogeneous(2, body));
    struct Out {
      u64 remote;
      u64 migrations;
    };
    return Out{machine.aggregate_counters()[sim::Event::kMemLoadRemoteDram],
               machine.aggregate_counters()[sim::Event::kSwPageMigrations]};
  };

  const auto off = run(false);
  const auto on = run(true);
  EXPECT_EQ(off.migrations, 0u);
  EXPECT_GT(on.migrations, 50u);  // most of the 128 pages moved
  EXPECT_LT(on.remote, off.remote);
}

}  // namespace
}  // namespace npat::os
