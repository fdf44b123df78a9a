#include "sim/machine.hpp"

#include <gtest/gtest.h>

#include "sim/presets.hpp"
#include "util/check.hpp"

namespace npat::sim {

struct MachineTestPeer {
  /// Valid lines summed over every L1, L2 and L3 of the machine.
  static u64 valid_cache_lines(const Machine& machine) {
    u64 total = 0;
    for (const auto& core : machine.cores_) total += core.l1.valid_lines() + core.l2.valid_lines();
    for (const auto& node : machine.nodes_) total += node.l3.valid_lines();
    return total;
  }
};

namespace {

MachineConfig small_config() {
  MachineConfig config = dual_socket_small(2);
  config.memory.jitter_fraction = 0.0;
  return config;
}

TEST(Machine, PaddrEncoding) {
  const PhysAddr p = make_paddr(3, 0x1234);
  EXPECT_EQ(node_of_paddr(p), 3u);
  EXPECT_EQ(p & 0xFFFFFFFFFFULL, 0x1234ULL);
}

TEST(Machine, ColdLoadGoesToDram) {
  Machine machine(small_config());
  const auto result = machine.load(0, make_paddr(0, 0), 0x10000, page_of(0x10000));
  EXPECT_EQ(result.source, DataSource::kLocalDram);
  EXPECT_GT(result.latency, 100u);
  const auto& counters = machine.core_counters(0);
  EXPECT_EQ(counters[Event::kL1dMiss], 1u);
  EXPECT_EQ(counters[Event::kL2Miss], 1u);
  EXPECT_EQ(counters[Event::kL3Miss], 1u);
  EXPECT_EQ(counters[Event::kMemLoadLocalDram], 1u);
  EXPECT_EQ(counters[Event::kPageWalks], 1u);  // cold TLB
}

TEST(Machine, SecondLoadHitsL1) {
  Machine machine(small_config());
  machine.load(0, make_paddr(0, 0), 0x10000, page_of(0x10000));
  const auto result = machine.load(0, make_paddr(0, 0), 0x10000, page_of(0x10000));
  EXPECT_EQ(result.source, DataSource::kL1);
  EXPECT_EQ(result.latency, machine.config().l1.hit_latency);
  EXPECT_EQ(machine.core_counters(0)[Event::kMemLoadL1Hit], 1u);
}

TEST(Machine, RemoteLoadSlowerAndCounted) {
  Machine machine(small_config());
  const auto local = machine.load(0, make_paddr(0, 0), 0x10000, page_of(0x10000));
  const auto remote = machine.load(0, make_paddr(1, 0), 0x20000, page_of(0x20000));
  EXPECT_EQ(remote.source, DataSource::kRemoteDram);
  EXPECT_GT(remote.latency, local.latency);
  EXPECT_EQ(machine.core_counters(0)[Event::kMemLoadRemoteDram], 1u);
  // Interconnect traffic accounted on the requester's node.
  EXPECT_GT(machine.uncore_counters(0)[Event::kUncQpiTxFlits], 0u);
  // DRAM command lands on the remote memory controller.
  EXPECT_GT(machine.uncore_counters(1)[Event::kUncImcReads], 0u);
}

TEST(Machine, CyclesAdvanceWithWork) {
  Machine machine(small_config());
  EXPECT_EQ(machine.core_clock(0), 0u);
  machine.execute(0, 1000);
  const Cycles after_compute = machine.core_clock(0);
  EXPECT_GE(after_compute, 400u);  // 1000 instr at IPC 2 = 500 cycles
  EXPECT_LE(after_compute, 600u);
  EXPECT_EQ(machine.core_counters(0)[Event::kInstructions], 1000u);
}

TEST(Machine, StoresCountedSeparately) {
  Machine machine(small_config());
  machine.store(0, make_paddr(0, 0), 0x10000, page_of(0x10000));
  const auto& counters = machine.core_counters(0);
  EXPECT_EQ(counters[Event::kStoresRetired], 1u);
  EXPECT_EQ(counters[Event::kLoadsRetired], 0u);
  EXPECT_EQ(counters[Event::kMemLoadL1Hit], 0u);  // loads only
}

TEST(Machine, AtomicCountsLocks) {
  Machine machine(small_config());
  machine.atomic_rmw(0, make_paddr(0, 0), 0x10000);
  const auto& counters = machine.core_counters(0);
  EXPECT_EQ(counters[Event::kAtomicOps], 1u);
  EXPECT_GE(counters[Event::kL1dLocks], 1u);
  EXPECT_GT(counters[Event::kLockCycles], 0u);
}

TEST(Machine, BranchesTrainAndMispredict) {
  Machine machine(small_config());
  for (int i = 0; i < 1000; ++i) machine.branch(0, 1, true);
  const auto& counters = machine.core_counters(0);
  EXPECT_EQ(counters[Event::kBranches], 1000u);
  EXPECT_LE(counters[Event::kBranchMisses], 15u);
  // An unstalled core retires most branches speculatively (the first few
  // mispredicts dent the duty cycle, hence not all 1000).
  EXPECT_GT(counters[Event::kSpeculativeJumpsRetired], 500u);
}

TEST(Machine, StallsReduceSpeculativeJumps) {
  // Two identical branch streams; one interleaved with cold remote loads.
  MachineConfig config = small_config();
  Machine fast(config);
  Machine slow(config);
  for (int i = 0; i < 2000; ++i) {
    fast.branch(0, 1, i % 3 != 0);
    slow.branch(0, 1, i % 3 != 0);
    // Unique cold remote loads keep the slow machine memory-starved.
    const VirtAddr vaddr = 0x100000 + static_cast<u64>(i) * 64;
    slow.load(0, make_paddr(1, static_cast<u64>(i) * 64), vaddr, page_of(vaddr));
  }
  const u64 spec_fast = fast.core_counters(0)[Event::kSpeculativeJumpsRetired];
  const u64 spec_slow = slow.core_counters(0)[Event::kSpeculativeJumpsRetired];
  EXPECT_LT(spec_slow, spec_fast);
}

TEST(Machine, CoherenceHitmAcrossNodes) {
  Machine machine(small_config());
  machine.set_coherence_enabled(true);
  const VirtAddr vaddr = 0x30000;
  const PhysAddr paddr = make_paddr(0, 0x2000);
  machine.store(0, paddr, vaddr, page_of(vaddr));  // node 0 owns the line dirty
  // A core on node 1 reads the same line: L3 of node 1 misses, directory
  // reports a remote HITM.
  const auto result = machine.load(2, paddr, vaddr, page_of(vaddr));
  EXPECT_EQ(result.source, DataSource::kRemoteCacheHitm);
  EXPECT_EQ(machine.core_counters(2)[Event::kMemLoadRemoteHitm], 1u);
  EXPECT_GT(machine.uncore_counters(0)[Event::kUncHitmResponses], 0u);
}

TEST(Machine, CoherenceDisabledByDefault) {
  Machine machine(small_config());
  const PhysAddr paddr = make_paddr(0, 0x2000);
  machine.store(0, paddr, 0x30000, page_of(0x30000));
  const auto result = machine.load(2, paddr, 0x30000, page_of(0x30000));
  EXPECT_NE(result.source, DataSource::kRemoteCacheHitm);
}

TEST(Machine, SequentialScanTriggersL2Prefetch) {
  Machine machine(small_config());
  for (u64 i = 0; i < 64 * 100; i += 16) {  // 4-byte elements, unit stride
    machine.load(0, make_paddr(0, i * 4), 0x10000 + i * 4, page_of(0x10000 + i * 4));
  }
  EXPECT_GT(machine.core_counters(0)[Event::kL2PrefetchRequests], 10u);
}

TEST(Machine, PageStrideScanUsesL3Streamer) {
  Machine machine(small_config());
  for (u64 i = 0; i < 300; ++i) {
    const VirtAddr vaddr = 0x10000 + i * kPageBytes;
    machine.load(0, make_paddr(0, i * kPageBytes), vaddr, page_of(vaddr));
  }
  const auto& counters = machine.core_counters(0);
  EXPECT_GT(counters[Event::kL3PrefetchRequests], 50u);
  EXPECT_LT(counters[Event::kL2PrefetchRequests], counters[Event::kL3PrefetchRequests]);
}

TEST(Machine, EnergyAccumulates) {
  Machine machine(small_config());
  machine.execute(0, 1000000);
  EXPECT_GT(machine.uncore_counters(0)[Event::kUncEnergyMicroJoules], 0u);
}

TEST(Machine, AggregateSumsCoresAndUncore) {
  Machine machine(small_config());
  machine.execute(0, 10);
  machine.execute(3, 20);
  const auto total = machine.aggregate_counters();
  EXPECT_EQ(total[Event::kInstructions], 30u);
}

TEST(Machine, ResetClearsEverything) {
  // The DL580 preset's 45 MiB L3 is the size the O(1) cache clear is for.
  MachineConfig config = hpe_dl580_gen9(2);
  config.memory.jitter_fraction = 0.0;
  Machine machine(config);
  const PhysAddr paddr = make_paddr(0, 0x40000);
  const VirtAddr vaddr = 0x40000;
  EXPECT_EQ(machine.load(0, paddr, vaddr, page_of(vaddr)).source, DataSource::kLocalDram);
  // Core 1 shares node 0's L3 but not core 0's L1 and L2.
  EXPECT_EQ(machine.load(1, paddr, vaddr, page_of(vaddr)).source, DataSource::kL3);
  EXPECT_GT(MachineTestPeer::valid_cache_lines(machine), 0u);
  machine.reset();
  EXPECT_EQ(machine.core_clock(0), 0u);
  EXPECT_EQ(machine.aggregate_counters()[Event::kL1dMiss], 0u);
  EXPECT_EQ(MachineTestPeer::valid_cache_lines(machine), 0u);
  // After reset the line that hit in L3 misses to DRAM again.
  EXPECT_EQ(machine.load(1, paddr, vaddr, page_of(vaddr)).source, DataSource::kLocalDram);
}

TEST(Machine, InvalidCoreThrows) {
  Machine machine(small_config());
  EXPECT_THROW(machine.execute(99, 1), CheckError);
}

TEST(Machine, PaddrBeyondNodesThrows) {
  Machine machine(small_config());
  EXPECT_THROW(machine.load(0, make_paddr(7, 0), 0x10000, page_of(0x10000)), CheckError);
}

}  // namespace
}  // namespace npat::sim

namespace npat::sim {
namespace {

TEST(Machine, ExplicitTlbKeyControlsTranslationCaching) {
  Machine machine(small_config());
  // Two distinct vaddrs sharing one TLB key: a single walk.
  machine.load(0, make_paddr(0, 0), 0x100000, /*tlb_page=*/42);
  machine.load(0, make_paddr(0, 4096), 0x101000, /*tlb_page=*/42);
  EXPECT_EQ(machine.core_counters(0)[Event::kPageWalks], 1u);

  // A different key walks again.
  machine.load(0, make_paddr(0, 8192), 0x102000, /*tlb_page=*/43);
  EXPECT_EQ(machine.core_counters(0)[Event::kPageWalks], 2u);
}

TEST(Machine, SoftwareEventCounting) {
  Machine machine(small_config());
  machine.count_software_event(Event::kSwPageMigrations, 5);
  EXPECT_EQ(machine.aggregate_counters()[Event::kSwPageMigrations], 5u);
}

TEST(Machine, WaitCountsAsStall) {
  Machine machine(small_config());
  machine.advance(0, 1000);
  machine.wait(0, 4000);
  const auto& counters = machine.core_counters(0);
  EXPECT_EQ(counters[Event::kCycles], 5000u);
  EXPECT_EQ(counters[Event::kStallCyclesTotal], 4000u);
  EXPECT_GT(machine.stall_ratio(0), 0.0);
}

}  // namespace
}  // namespace npat::sim
