#include "os/vm.hpp"

#include <gtest/gtest.h>

#include "sim/presets.hpp"
#include "trace/runner.hpp"
#include "util/check.hpp"

namespace npat::os {
namespace {

sim::Topology topo4() { return sim::make_fully_connected(4, 2); }

TEST(Vm, AllocateAlignsAndGrowsFootprint) {
  const auto topology = topo4();
  AddressSpace space(topology);
  EXPECT_EQ(space.footprint_bytes(), 0u);
  const VirtAddr a = space.allocate(100);
  EXPECT_EQ(a % kPageBytes, 0u);
  EXPECT_EQ(space.footprint_bytes(), kPageBytes);  // rounded up
  space.allocate(2 * kPageBytes + 1);
  EXPECT_EQ(space.footprint_bytes(), kPageBytes + 3 * kPageBytes);
}

TEST(Vm, FirstTouchPlacesOnTouchingNode) {
  const auto topology = topo4();
  AddressSpace space(topology);
  const VirtAddr base = space.allocate(4 * kPageBytes);
  const PhysAddr p0 = space.translate(base, 2);
  EXPECT_EQ(sim::node_of_paddr(p0), 2u);
  const PhysAddr p1 = space.translate(base + kPageBytes, 3);
  EXPECT_EQ(sim::node_of_paddr(p1), 3u);
  // Established mappings are sticky regardless of later touchers.
  EXPECT_EQ(sim::node_of_paddr(space.translate(base, 0)), 2u);
}

TEST(Vm, BindPolicyIgnoresToucher) {
  const auto topology = topo4();
  AddressSpace space(topology);
  const VirtAddr base = space.allocate(2 * kPageBytes, PagePolicy::kBind, 1);
  EXPECT_EQ(sim::node_of_paddr(space.translate(base, 3)), 1u);
  EXPECT_EQ(sim::node_of_paddr(space.translate(base + kPageBytes, 0)), 1u);
}

TEST(Vm, InterleavePolicyRoundRobins) {
  const auto topology = topo4();
  AddressSpace space(topology);
  const VirtAddr base = space.allocate(8 * kPageBytes, PagePolicy::kInterleave);
  std::vector<u64> counts(4, 0);
  for (u64 p = 0; p < 8; ++p) {
    counts[sim::node_of_paddr(space.translate(base + p * kPageBytes, 0))]++;
  }
  for (u64 c : counts) EXPECT_EQ(c, 2u);
}

TEST(Vm, OffsetPreservedInTranslation) {
  const auto topology = topo4();
  AddressSpace space(topology);
  const VirtAddr base = space.allocate(kPageBytes);
  const PhysAddr p = space.translate(base + 123, 0);
  EXPECT_EQ(p % kPageBytes, 123u);
}

TEST(Vm, SamePageSameFrame) {
  const auto topology = topo4();
  AddressSpace space(topology);
  const VirtAddr base = space.allocate(kPageBytes);
  const PhysAddr a = space.translate(base + 8, 0);
  const PhysAddr b = space.translate(base + 16, 1);
  EXPECT_EQ(a - 8, b - 16);
}

TEST(Vm, DistinctPagesDistinctFrames) {
  const auto topology = topo4();
  AddressSpace space(topology);
  const VirtAddr base = space.allocate(2 * kPageBytes);
  const PhysAddr a = space.translate(base, 0);
  const PhysAddr b = space.translate(base + kPageBytes, 0);
  EXPECT_NE(page_of(a), page_of(b));
}

TEST(Vm, ResidentTracksTouchedPagesOnly) {
  const auto topology = topo4();
  AddressSpace space(topology);
  const VirtAddr base = space.allocate(10 * kPageBytes);
  EXPECT_EQ(space.resident_bytes(), 0u);
  space.translate(base, 0);
  space.translate(base + 3 * kPageBytes, 0);
  EXPECT_EQ(space.resident_bytes(), 2 * kPageBytes);
}

TEST(Vm, FreeReturnsFootprintAndUnmaps) {
  const auto topology = topo4();
  AddressSpace space(topology);
  std::vector<u64> unmapped;
  space.on_unmap = [&](u64 page) { unmapped.push_back(page); };

  const VirtAddr base = space.allocate(2 * kPageBytes);
  space.translate(base, 1);
  space.free(base);
  EXPECT_EQ(space.footprint_bytes(), 0u);
  EXPECT_EQ(space.resident_bytes(), 0u);
  EXPECT_EQ(unmapped.size(), 1u);  // only the touched page was mapped
  EXPECT_EQ(space.pages_per_node()[1], 0u);
}

TEST(Vm, FreeUnknownBaseThrows) {
  const auto topology = topo4();
  AddressSpace space(topology);
  EXPECT_THROW(space.free(0xdead000), CheckError);
}

TEST(Vm, AccessToUnmappedThrows) {
  const auto topology = topo4();
  AddressSpace space(topology);
  EXPECT_THROW(space.translate(0xdead000, 0), CheckError);
  const VirtAddr base = space.allocate(kPageBytes);
  // One past the end (guard page) is not mapped.
  EXPECT_THROW(space.translate(base + kPageBytes, 0), CheckError);
}

TEST(Vm, PeekDoesNotMap) {
  const auto topology = topo4();
  AddressSpace space(topology);
  const VirtAddr base = space.allocate(kPageBytes);
  EXPECT_FALSE(space.peek(base).has_value());
  space.translate(base, 0);
  EXPECT_TRUE(space.peek(base).has_value());
}

TEST(Vm, PagesPerNodeAccounting) {
  const auto topology = topo4();
  AddressSpace space(topology);
  const VirtAddr base = space.allocate(6 * kPageBytes);
  space.translate(base, 0);
  space.translate(base + kPageBytes, 0);
  space.translate(base + 2 * kPageBytes, 1);
  const auto counts = space.pages_per_node();
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 0u);
}

TEST(Vm, PolicyOverrideRedirectsEveryAllocation) {
  const auto topology = topo4();
  AddressSpace space(topology);
  EXPECT_FALSE(space.policy_override_active());
  space.set_policy_override(PagePolicy::kBind, 2);
  EXPECT_TRUE(space.policy_override_active());

  // The workload asks for first-touch from node 0; the override wins.
  const VirtAddr overridden = space.allocate(2 * kPageBytes, PagePolicy::kFirstTouch);
  EXPECT_EQ(sim::node_of_paddr(space.translate(overridden, 0)), 2u);
  EXPECT_EQ(sim::node_of_paddr(space.translate(overridden + kPageBytes, 3)), 2u);

  // Cleared: later allocations honor the workload's own policy again
  // (established mappings keep their frames).
  space.clear_policy_override();
  EXPECT_FALSE(space.policy_override_active());
  const VirtAddr normal = space.allocate(kPageBytes, PagePolicy::kFirstTouch);
  EXPECT_EQ(sim::node_of_paddr(space.translate(normal, 3)), 3u);
  EXPECT_EQ(sim::node_of_paddr(space.translate(overridden, 0)), 2u);
}

TEST(Vm, PolicyOverrideValidatesBindNode) {
  const auto topology = topo4();
  AddressSpace space(topology);
  EXPECT_THROW(space.set_policy_override(PagePolicy::kBind, 4), CheckError);
}

TEST(Vm, InterleaveCursorWrapsAcrossMixedRegions) {
  // Each region round-robins independently, and the cursor must wrap past
  // the last node — for small and huge regions alike.
  const auto topology = topo4();
  AddressSpace space(topology);
  const VirtAddr small = space.allocate(6 * kPageBytes, PagePolicy::kInterleave);
  const VirtAddr huge = space.allocate_huge(6 * kHugePageBytes, PagePolicy::kInterleave);

  const sim::NodeId expected[] = {0, 1, 2, 3, 0, 1};
  for (u64 p = 0; p < 6; ++p) {
    EXPECT_EQ(sim::node_of_paddr(space.translate(small + p * kPageBytes, 3)), expected[p])
        << "small page " << p;
  }
  for (u64 p = 0; p < 6; ++p) {
    EXPECT_EQ(sim::node_of_paddr(space.translate(huge + p * kHugePageBytes, 3)), expected[p])
        << "huge page " << p;
  }
  const auto counts = space.pages_per_node();
  // 2+2 pages on nodes 0/1, 1+1 on 2/3 (huge counted in 4 KiB units).
  const u64 huge_units = kHugePageBytes / kPageBytes;
  EXPECT_EQ(counts[0], 2 + 2 * huge_units);
  EXPECT_EQ(counts[3], 1 + 1 * huge_units);
}

TEST(Vm, BindToHighestNodeOfDl580) {
  const sim::MachineConfig config = sim::hpe_dl580_gen9(4);
  AddressSpace space(config.topology);
  const sim::NodeId last = static_cast<sim::NodeId>(config.topology.nodes - 1);
  const VirtAddr base = space.allocate(3 * kPageBytes, PagePolicy::kBind, last);
  for (u64 p = 0; p < 3; ++p) {
    EXPECT_EQ(sim::node_of_paddr(space.translate(base + p * kPageBytes, 0)), last);
  }
  EXPECT_EQ(space.pages_per_node()[last], 3u);
  // One past the last node is rejected outright.
  EXPECT_THROW(space.allocate(kPageBytes, PagePolicy::kBind,
                              static_cast<sim::NodeId>(config.topology.nodes)),
               CheckError);
}

TEST(Vm, FirstTouchFromEveryNodeOfDl580) {
  const sim::MachineConfig config = sim::hpe_dl580_gen9(4);
  AddressSpace space(config.topology);
  const VirtAddr base = space.allocate(config.topology.nodes * kPageBytes);
  for (sim::NodeId n = 0; n < config.topology.nodes; ++n) {
    EXPECT_EQ(sim::node_of_paddr(space.translate(base + n * kPageBytes, n)), n);
  }
  for (sim::NodeId n = 0; n < config.topology.nodes; ++n) {
    EXPECT_EQ(space.pages_per_node()[n], 1u) << "node " << n;
  }
}

TEST(Vm, FreeOfLastRegionRestartsBumpAllocators) {
  // Regression: free() used to leave next_vaddr_/next_frame_ advanced, so a
  // replayed run in a reused space saw different addresses and frames than
  // a fresh run — and never reused the freed physical range.
  const auto topology = topo4();
  AddressSpace space(topology);
  const VirtAddr first = space.allocate(3 * kPageBytes);
  const PhysAddr first_paddr = space.translate(first, 1);
  space.free(first);
  const VirtAddr again = space.allocate(3 * kPageBytes);
  EXPECT_EQ(again, first);
  EXPECT_EQ(space.translate(again, 1), first_paddr);
}

}  // namespace
}  // namespace npat::os

namespace npat::os {
namespace {

TEST(HugePages, AllocationRoundsAndAligns) {
  const auto topology = sim::make_fully_connected(2, 1);
  AddressSpace space(topology);
  const VirtAddr base = space.allocate_huge(kHugePageBytes + 1);
  EXPECT_EQ(base % kHugePageBytes, 0u);
  EXPECT_EQ(space.footprint_bytes(), 2 * kHugePageBytes);
}

TEST(HugePages, OneFrameCoversWholeHugePage) {
  const auto topology = sim::make_fully_connected(2, 1);
  AddressSpace space(topology);
  const VirtAddr base = space.allocate_huge(kHugePageBytes);
  const auto first = space.translate_ex(base, 1);
  const auto last = space.translate_ex(base + kHugePageBytes - 64, 0);
  // Same frame, contiguous offsets, placed by the *first* toucher.
  EXPECT_EQ(last.paddr - first.paddr, kHugePageBytes - 64);
  EXPECT_EQ(sim::node_of_paddr(first.paddr), 1u);
  EXPECT_EQ(sim::node_of_paddr(last.paddr), 1u);
  // Resident accounting counts the full reach in 4 KiB units.
  EXPECT_EQ(space.resident_bytes(), kHugePageBytes);
  EXPECT_EQ(space.pages_per_node()[1], kHugePageBytes / kPageBytes);
}

TEST(HugePages, TlbKeysDifferFromSmallPages) {
  const auto topology = sim::make_fully_connected(1, 1);
  AddressSpace space(topology);
  const VirtAddr small = space.allocate(kPageBytes);
  const VirtAddr huge = space.allocate_huge(kHugePageBytes);
  const auto ts = space.translate_ex(small, 0);
  const auto th1 = space.translate_ex(huge, 0);
  const auto th2 = space.translate_ex(huge + kHugePageBytes - 8, 0);
  EXPECT_NE(ts.tlb_key & kHugeTlbKeyBit, kHugeTlbKeyBit);
  EXPECT_EQ(th1.tlb_key & kHugeTlbKeyBit, kHugeTlbKeyBit);
  EXPECT_EQ(th1.tlb_key, th2.tlb_key);  // whole huge page = one TLB entry
}

TEST(HugePages, FreeReleasesHugeRegion) {
  const auto topology = sim::make_fully_connected(1, 1);
  AddressSpace space(topology);
  const VirtAddr base = space.allocate_huge(2 * kHugePageBytes);
  space.translate(base, 0);
  space.translate(base + kHugePageBytes, 0);
  usize unmaps = 0;
  space.on_unmap = [&](u64) { ++unmaps; };
  space.free(base);
  EXPECT_EQ(space.footprint_bytes(), 0u);
  EXPECT_EQ(space.resident_bytes(), 0u);
  EXPECT_EQ(unmaps, 2u);
  EXPECT_FALSE(space.peek(base).has_value());
}

TEST(HugePages, ExemptFromNumaBalancing) {
  const auto topology = sim::make_fully_connected(2, 1);
  AddressSpace space(topology);
  space.enable_numa_balancing(2);
  const VirtAddr base = space.allocate_huge(kHugePageBytes);
  space.translate(base, 0);
  for (int i = 0; i < 50; ++i) space.translate(base, 1);
  EXPECT_EQ(space.pages_migrated(), 0u);
  EXPECT_EQ(sim::node_of_paddr(*space.peek(base)), 0u);
}

TEST(HugePages, EliminatePageWalksEndToEnd) {
  // Same sparse access pattern over 4 KiB vs 2 MiB pages: the huge-page
  // run must complete with a tiny fraction of the walks.
  auto config = sim::uma_single_node(1);
  config.memory.jitter_fraction = 0.0;

  auto run = [&](bool huge) {
    sim::Machine machine(config);
    trace::Run trial(machine);
    auto body = [huge](trace::ThreadContext& ctx) -> trace::SimTask {
      constexpr usize kPages = 4096;
      const VirtAddr base = huge ? ctx.alloc_huge(kPages * kPageBytes)
                                 : ctx.alloc(kPages * kPageBytes);
      for (usize p = 0; p < kPages; ++p) co_await ctx.store(base + p * kPageBytes);
      for (int i = 0; i < 20000; ++i) {
        co_await ctx.load(base + ctx.rng().below(kPages) * kPageBytes);
      }
    };
    trial.run(trace::Program::single(body));
    return machine.core_counters(0)[sim::Event::kPageWalks];
  };

  const u64 small_walks = run(false);
  const u64 huge_walks = run(true);
  EXPECT_GT(small_walks, 10000u);   // 4096 pages >> STLB capacity
  EXPECT_LT(huge_walks, 32u);       // 8 huge pages fit the DTLB outright
}

}  // namespace
}  // namespace npat::os
