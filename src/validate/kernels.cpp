#include "validate/kernels.hpp"

#include <cmath>
#include <memory>

#include "sim/pmu.hpp"
#include "util/check.hpp"

namespace npat::validate {

namespace {

using sim::Event;
using trace::Program;
using trace::SimTask;
using trace::ThreadContext;

// Kernel sizing. Working sets are chosen so the analytics hold on every
// preset: all presets share the 32 KiB / 8-way L1 and 256 KiB / 8-way L2,
// and the smallest L3 (dual_socket_small, 4 MiB) still fully holds the
// 1 MiB chase footprint.
constexpr u64 kAluInstructions = 1'000'000;
constexpr u64 kBranchCount = 4096;
constexpr u64 kBranchSite = 0xb7a9c5;
constexpr u64 kAtomicCount = 512;
constexpr u64 kL1Lines = 256;    // 16 KiB: half the L1
constexpr u32 kL1Passes = 4;     // read passes after the fill pass
constexpr u64 kSpillLines = 1024;  // 64 KiB of stores: twice the L1
constexpr u64 kL2Lines = 2048;   // 128 KiB: half the L2, 4x the L1
constexpr u32 kL2Passes = 3;
constexpr u64 kChaseLines = 16384;  // 1 MiB: 4x the L2, inside every L3
constexpr u32 kChasePasses = 2;     // passes after the fill pass
constexpr u64 kChaseStride = 17;    // coprime with kChaseLines; > 8 lines,
                                    // so only the LLC streamer may engage
constexpr u64 kRemoteLines = 4096;  // 256 KiB touched once on node 1
constexpr u64 kHitmLines = 256;     // fits the producer L1 with headroom
constexpr u64 kTlbPages = 128;      // 2x the DTLB, inside the STLB
constexpr u32 kTlbPasses = 2;
constexpr u64 kPebsLines = 256;
constexpr u32 kPebsPasses = 2;
constexpr Cycles kPebsThreshold = 80;  // between L1-hit (~4) and DRAM (~190)
constexpr u64 kSwMigrations = 7;

void disable_prefetcher(sim::MachineConfig& config) { config.prefetcher.degree = 0; }

double atomic_cycles(const sim::MachineConfig& c) {
  return static_cast<double>(c.atomic_latency);
}
double walk_lo(const sim::MachineConfig& c, u64 walks) {
  return static_cast<double>(walks * c.tlb.walk_latency);
}
double walk_hi(const sim::MachineConfig& c, u64 walks) {
  return static_cast<double>(walks * (c.tlb.walk_latency + 7));
}

std::vector<Expectation> zero_memory_events() {
  std::vector<Expectation> out;
  for (Event e : {Event::kL1dAccess, Event::kL1dHit, Event::kL1dMiss, Event::kL1dEviction,
                  Event::kL1dLocks, Event::kL2Access, Event::kL2Hit, Event::kL2Miss,
                  Event::kL2Eviction, Event::kL2PrefetchRequests, Event::kL3Access,
                  Event::kL3Hit, Event::kL3Miss, Event::kL3PrefetchRequests,
                  Event::kFillBufferAllocations, Event::kFillBufferRejects,
                  Event::kDtlbAccess, Event::kDtlbMiss, Event::kStlbHit, Event::kPageWalks,
                  Event::kPageWalkCycles, Event::kLoadsRetired, Event::kStoresRetired,
                  Event::kMemLoadL1Hit, Event::kMemLoadL2Hit, Event::kMemLoadL3Hit,
                  Event::kMemLoadLocalDram, Event::kMemLoadRemoteDram,
                  Event::kMemLoadRemoteHitm, Event::kLoadLatencyAbove, Event::kAtomicOps,
                  Event::kLockCycles, Event::kUncLlcLookups, Event::kUncLlcMisses,
                  Event::kUncImcReads, Event::kUncImcWrites, Event::kUncQpiTxFlits,
                  Event::kUncSnoopsReceived, Event::kUncHitmResponses}) {
    out.push_back(Expectation::exact(e, 0));
  }
  return out;
}

// --- kernel bodies (free coroutines; parameters are copied into the frame,
// so the wrapping lambdas may return immediately) ---

SimTask alu_body(ThreadContext& ctx) { co_await ctx.compute(kAluInstructions); }

SimTask branch_body(ThreadContext& ctx) {
  // Pseudo-random taken pattern (fixed LCG): regular patterns — including
  // plain alternation — fit inside the gshare history and would be
  // *learned*, collapsing the misprediction band to zero.
  u64 x = 0x9e3779b97f4a7c15ULL;
  for (u64 i = 0; i < kBranchCount; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    co_await ctx.branch(kBranchSite, ((x >> 33) & 1) != 0);
  }
}

SimTask atomic_body(ThreadContext& ctx) {
  const VirtAddr base = ctx.alloc(kCacheLineBytes);
  for (u64 i = 0; i < kAtomicCount; ++i) co_await ctx.atomic(base);
}

SimTask sweep_loads_body(ThreadContext& ctx, u64 lines, u32 extra_passes) {
  const VirtAddr base = ctx.alloc(lines * kCacheLineBytes);
  for (u32 pass = 0; pass < extra_passes + 1; ++pass) {
    for (u64 i = 0; i < lines; ++i) co_await ctx.load(base + i * kCacheLineBytes);
  }
}

SimTask sweep_stores_body(ThreadContext& ctx, u64 lines) {
  const VirtAddr base = ctx.alloc(lines * kCacheLineBytes);
  for (u64 i = 0; i < lines; ++i) co_await ctx.store(base + i * kCacheLineBytes);
}

SimTask chase_body(ThreadContext& ctx, u64 lines, u64 stride, u32 extra_passes) {
  // Pointer-chase permutation i -> (i * stride) mod lines (stride coprime
  // with lines). The simulator models costs, not data, so the chase is the
  // address sequence itself: exactly `lines` loads per pass, each line
  // visited exactly once.
  const VirtAddr base = ctx.alloc(lines * kCacheLineBytes);
  for (u32 pass = 0; pass < extra_passes + 1; ++pass) {
    u64 line = 0;
    for (u64 i = 0; i < lines; ++i) {
      co_await ctx.load(base + line * kCacheLineBytes);
      line = (line + stride) % lines;
    }
  }
}

SimTask remote_body(ThreadContext& ctx) {
  const VirtAddr base =
      ctx.alloc(kRemoteLines * kCacheLineBytes, os::PagePolicy::kBind, /*bind_node=*/1);
  for (u64 i = 0; i < kRemoteLines; ++i) co_await ctx.load(base + i * kCacheLineBytes);
}

struct HitmShared {
  VirtAddr base = 0;
};

SimTask hitm_producer_body(ThreadContext& ctx, std::shared_ptr<HitmShared> shared) {
  shared->base = ctx.alloc(kHitmLines * kCacheLineBytes);
  for (u64 i = 0; i < kHitmLines; ++i) {
    co_await ctx.store(shared->base + i * kCacheLineBytes);
  }
  co_await ctx.barrier(1);
}

SimTask hitm_consumer_body(ThreadContext& ctx, std::shared_ptr<HitmShared> shared) {
  co_await ctx.barrier(1);
  for (u64 i = 0; i < kHitmLines; ++i) {
    co_await ctx.load(shared->base + i * kCacheLineBytes);
  }
}

SimTask tlb_body(ThreadContext& ctx) {
  const VirtAddr base = ctx.alloc(kTlbPages * kPageBytes);
  for (u32 pass = 0; pass < kTlbPasses + 1; ++pass) {
    for (u64 p = 0; p < kTlbPages; ++p) co_await ctx.load(base + p * kPageBytes);
  }
}

SimTask sw_body(ThreadContext& ctx) { co_await ctx.compute(10); }

std::vector<KernelSpec> build_suite() {
  std::vector<KernelSpec> suite;

  // --- alu: pure computation, analytically exact cycle/instruction/energy
  // counts and an exact zero for every memory-path event ---
  {
    KernelSpec k;
    k.name = "alu";
    k.description = "1M ALU instructions, no memory: exact cycles/energy, zero elsewhere";
    k.make_program = [] { return Program::single(alu_body); };
    k.expects = [](const sim::MachineConfig& c) {
      const double instr = static_cast<double>(kAluInstructions);
      const double cycles = static_cast<double>(
          std::max<Cycles>(1, static_cast<Cycles>(std::llround(instr / c.base_ipc))));
      const double microjoules = static_cast<double>(static_cast<u64>(
          std::llround(instr * c.energy_pj_per_instruction / 1e6)));
      auto out = zero_memory_events();
      out.push_back(Expectation::exact(Event::kCycles, cycles));
      out.push_back(Expectation::exact(Event::kRefCycles, cycles));
      out.push_back(Expectation::exact(Event::kInstructions, instr));
      out.push_back(Expectation::exact(Event::kUopsIssued, instr));
      out.push_back(Expectation::exact(Event::kUopsRetired, instr));
      out.push_back(Expectation::exact(Event::kStallCyclesTotal, 0));
      out.push_back(Expectation::exact(Event::kStallCyclesMem, 0));
      out.push_back(Expectation::exact(Event::kBranches, 0));
      out.push_back(Expectation::exact(Event::kBranchMisses, 0));
      out.push_back(Expectation::exact(Event::kSpeculativeJumpsRetired, 0));
      out.push_back(Expectation::exact(Event::kSwPageMigrations, 0));
      out.push_back(Expectation::exact(Event::kUncEnergyMicroJoules, microjoules));
      return out;
    };
    suite.push_back(std::move(k));
  }

  // --- branch_weather: exact branch counts, banded prediction events ---
  {
    KernelSpec k;
    k.name = "branch_weather";
    k.description = "4k branches with an LCG taken pattern: exact retirement, banded misses";
    k.make_program = [] { return Program::single(branch_body); };
    k.expects = [](const sim::MachineConfig& c) {
      const double n = static_cast<double>(kBranchCount);
      const double penalty = static_cast<double>(c.branch.misprediction_penalty);
      std::vector<Expectation> out;
      out.push_back(Expectation::exact(Event::kBranches, n));
      out.push_back(Expectation::exact(Event::kInstructions, n));
      out.push_back(Expectation::exact(Event::kUopsRetired, n));
      // gshare on an LCG pattern sits near 50 % mispredictions; anything
      // outside [1/8, 7/8] means the predictor or the counter broke.
      out.push_back(Expectation::band(Event::kBranchMisses, n / 8, n * 7 / 8));
      out.push_back(Expectation::band(Event::kSpeculativeJumpsRetired, 1, n));
      // Each mispredict issues 4 squashed uops and stalls `penalty` cycles.
      out.push_back(Expectation::band(Event::kUopsIssued, n, n + 4 * n));
      out.push_back(Expectation::band(Event::kCycles, n, n * (1 + penalty)));
      out.push_back(Expectation::exact(Event::kL1dAccess, 0));
      out.push_back(Expectation::exact(Event::kLoadsRetired, 0));
      out.push_back(Expectation::exact(Event::kDtlbAccess, 0));
      out.push_back(Expectation::exact(Event::kAtomicOps, 0));
      return out;
    };
    suite.push_back(std::move(k));
  }

  // --- atomic_ticket: K locked RMWs on one line ---
  {
    KernelSpec k;
    k.name = "atomic_ticket";
    k.description = "512 locked RMWs on one line: exact atomic/lock-cycle counts";
    k.make_program = [] { return Program::single(atomic_body); };
    k.expects = [](const sim::MachineConfig& c) {
      const double n = static_cast<double>(kAtomicCount);
      const double lock = atomic_cycles(c);
      // The single page walk stalls floor(walk/2) with walk in
      // [walk_latency, walk_latency + 7].
      const double stall_lo = std::floor(static_cast<double>(c.tlb.walk_latency) / 2);
      const double stall_hi = std::floor(static_cast<double>(c.tlb.walk_latency + 7) / 2);
      std::vector<Expectation> out;
      out.push_back(Expectation::exact(Event::kAtomicOps, n));
      out.push_back(Expectation::exact(Event::kLockCycles, n * lock));
      out.push_back(Expectation::exact(Event::kL1dLocks, n + 1));
      out.push_back(Expectation::exact(Event::kStoresRetired, n));
      out.push_back(Expectation::exact(Event::kLoadsRetired, 0));
      out.push_back(Expectation::exact(Event::kInstructions, n));
      out.push_back(Expectation::exact(Event::kDtlbAccess, n));
      out.push_back(Expectation::exact(Event::kDtlbMiss, 1));
      out.push_back(Expectation::exact(Event::kPageWalks, 1));
      out.push_back(Expectation::exact(Event::kStlbHit, 0));
      out.push_back(Expectation::band(Event::kPageWalkCycles, walk_lo(c, 1), walk_hi(c, 1)));
      out.push_back(Expectation::exact(Event::kL1dAccess, n));
      out.push_back(Expectation::exact(Event::kL1dHit, n - 1));
      out.push_back(Expectation::exact(Event::kL1dMiss, 1));
      out.push_back(Expectation::exact(Event::kL2Access, 1));
      out.push_back(Expectation::exact(Event::kL2Miss, 1));
      out.push_back(Expectation::exact(Event::kL3Access, 1));
      out.push_back(Expectation::exact(Event::kL3Miss, 1));
      out.push_back(Expectation::exact(Event::kUncLlcLookups, 1));
      out.push_back(Expectation::exact(Event::kUncLlcMisses, 1));
      out.push_back(Expectation::exact(Event::kUncImcWrites, 1));
      out.push_back(Expectation::exact(Event::kUncImcReads, 0));
      out.push_back(Expectation::exact(Event::kFillBufferAllocations, 1));
      out.push_back(Expectation::exact(Event::kFillBufferRejects, 0));
      out.push_back(Expectation::band(Event::kStallCyclesMem, n * lock + stall_lo,
                                      n * lock + stall_hi));
      out.push_back(Expectation::band(Event::kStallCyclesTotal, n * lock + stall_lo,
                                      n * lock + stall_hi));
      out.push_back(Expectation::band(Event::kCycles, n * (lock + 1) + stall_lo,
                                      n * (lock + 1) + stall_hi));
      out.push_back(Expectation::exact(Event::kMemLoadL1Hit, 0));
      return out;
    };
    suite.push_back(std::move(k));
  }

  // --- l1_resident: working set at half the L1, exact hit/miss split ---
  {
    KernelSpec k;
    k.name = "l1_resident";
    k.description = "16 KiB load loop: exact L1 hit/miss split and DRAM fill counts";
    k.prepare = disable_prefetcher;
    k.make_program = [] {
      return Program::single(
          [](ThreadContext& ctx) { return sweep_loads_body(ctx, kL1Lines, kL1Passes); });
    };
    k.expects = [](const sim::MachineConfig& c) {
      const double ws = static_cast<double>(kL1Lines);
      const double total = ws * (kL1Passes + 1);
      const double pages = static_cast<double>(kL1Lines * kCacheLineBytes / kPageBytes);
      std::vector<Expectation> out;
      out.push_back(Expectation::exact(Event::kLoadsRetired, total));
      out.push_back(Expectation::exact(Event::kStoresRetired, 0));
      out.push_back(Expectation::exact(Event::kL1dAccess, total));
      out.push_back(Expectation::exact(Event::kL1dHit, total - ws));
      out.push_back(Expectation::exact(Event::kMemLoadL1Hit, total - ws));
      out.push_back(Expectation::exact(Event::kL1dMiss, ws));
      out.push_back(Expectation::exact(Event::kL1dEviction, 0));
      out.push_back(Expectation::exact(Event::kL2Access, ws));
      out.push_back(Expectation::exact(Event::kL2Hit, 0));
      out.push_back(Expectation::exact(Event::kL2Miss, ws));
      out.push_back(Expectation::exact(Event::kL2Eviction, 0));
      out.push_back(Expectation::exact(Event::kL3Access, ws));
      out.push_back(Expectation::exact(Event::kL3Hit, 0));
      out.push_back(Expectation::exact(Event::kL3Miss, ws));
      out.push_back(Expectation::exact(Event::kUncLlcLookups, ws));
      out.push_back(Expectation::exact(Event::kUncLlcMisses, ws));
      out.push_back(Expectation::exact(Event::kUncImcReads, ws));
      out.push_back(Expectation::exact(Event::kUncImcWrites, 0));
      out.push_back(Expectation::exact(Event::kMemLoadLocalDram, ws));
      out.push_back(Expectation::exact(Event::kMemLoadRemoteDram, 0));
      out.push_back(Expectation::exact(Event::kFillBufferAllocations, ws));
      out.push_back(Expectation::exact(Event::kDtlbAccess, total));
      out.push_back(Expectation::exact(Event::kDtlbMiss, pages));
      out.push_back(Expectation::exact(Event::kPageWalks, pages));
      out.push_back(Expectation::exact(Event::kStlbHit, 0));
      out.push_back(Expectation::band(Event::kPageWalkCycles, walk_lo(c, kL1Lines * 64 / 4096),
                                      walk_hi(c, kL1Lines * 64 / 4096)));
      out.push_back(Expectation::exact(Event::kL2PrefetchRequests, 0));
      out.push_back(Expectation::exact(Event::kL3PrefetchRequests, 0));
      return out;
    };
    suite.push_back(std::move(k));
  }

  // --- store_spill: streaming stores at twice the L1, exact dirty
  // evictions (the only path that increments l1d eviction) ---
  {
    KernelSpec k;
    k.name = "store_spill";
    k.description = "64 KiB store stream: exact dirty-eviction and IMC-write counts";
    k.prepare = disable_prefetcher;
    k.make_program = [] {
      return Program::single([](ThreadContext& ctx) { return sweep_stores_body(ctx, kSpillLines); });
    };
    k.expects = [](const sim::MachineConfig& c) {
      const double ws = static_cast<double>(kSpillLines);
      const double l1_lines = static_cast<double>(c.l1.lines());
      const double pages = static_cast<double>(kSpillLines * kCacheLineBytes / kPageBytes);
      std::vector<Expectation> out;
      out.push_back(Expectation::exact(Event::kStoresRetired, ws));
      out.push_back(Expectation::exact(Event::kLoadsRetired, 0));
      out.push_back(Expectation::exact(Event::kL1dAccess, ws));
      out.push_back(Expectation::exact(Event::kL1dHit, 0));
      out.push_back(Expectation::exact(Event::kL1dMiss, ws));
      // Every line is stored exactly once, so every capacity eviction is a
      // dirty eviction: fills minus the L1's capacity.
      out.push_back(Expectation::exact(Event::kL1dEviction, ws - l1_lines));
      out.push_back(Expectation::exact(Event::kL2Access, ws));
      out.push_back(Expectation::exact(Event::kL2Miss, ws));
      out.push_back(Expectation::exact(Event::kL2Eviction, 0));
      out.push_back(Expectation::exact(Event::kL3Miss, ws));
      out.push_back(Expectation::exact(Event::kUncImcWrites, ws));
      out.push_back(Expectation::exact(Event::kUncImcReads, 0));
      out.push_back(Expectation::exact(Event::kMemLoadLocalDram, 0));
      out.push_back(Expectation::exact(Event::kFillBufferAllocations, ws));
      out.push_back(Expectation::exact(Event::kDtlbMiss, pages));
      out.push_back(Expectation::exact(Event::kPageWalks, pages));
      out.push_back(Expectation::exact(Event::kDtlbAccess, ws));
      return out;
    };
    suite.push_back(std::move(k));
  }

  // --- stream_l2_exact: working set at half the L2, prefetcher off ---
  {
    KernelSpec k;
    k.name = "stream_l2_exact";
    k.description = "128 KiB load stream, prefetcher off: exact L2 hit split";
    k.prepare = disable_prefetcher;
    k.make_program = [] {
      return Program::single(
          [](ThreadContext& ctx) { return sweep_loads_body(ctx, kL2Lines, kL2Passes); });
    };
    k.expects = [](const sim::MachineConfig&) {
      const double ws = static_cast<double>(kL2Lines);
      const double total = ws * (kL2Passes + 1);
      const double hits = ws * kL2Passes;
      std::vector<Expectation> out;
      out.push_back(Expectation::exact(Event::kLoadsRetired, total));
      out.push_back(Expectation::exact(Event::kL1dAccess, total));
      // 2048 lines streamed through a 512-line L1: every access misses L1.
      out.push_back(Expectation::exact(Event::kL1dHit, 0));
      out.push_back(Expectation::exact(Event::kL1dMiss, total));
      out.push_back(Expectation::exact(Event::kL2Access, total));
      out.push_back(Expectation::exact(Event::kL2Hit, hits));
      out.push_back(Expectation::exact(Event::kMemLoadL2Hit, hits));
      out.push_back(Expectation::exact(Event::kL2Miss, ws));
      out.push_back(Expectation::exact(Event::kL2Eviction, 0));
      out.push_back(Expectation::exact(Event::kL3Access, ws));
      out.push_back(Expectation::exact(Event::kL3Miss, ws));
      out.push_back(Expectation::exact(Event::kUncImcReads, ws));
      out.push_back(Expectation::exact(Event::kMemLoadLocalDram, ws));
      out.push_back(Expectation::exact(Event::kFillBufferAllocations, total));
      out.push_back(Expectation::exact(Event::kL2PrefetchRequests, 0));
      out.push_back(Expectation::exact(Event::kL3PrefetchRequests, 0));
      return out;
    };
    suite.push_back(std::move(k));
  }

  // --- stream_l2_prefetch: same stream with the prefetcher on; the
  // demand-side L1 counts stay exact, prefetch counts get bands ---
  {
    KernelSpec k;
    k.name = "stream_l2_prefetch";
    k.description = "128 KiB load stream, prefetcher on: banded L2 prefetch activity";
    k.make_program = [] {
      return Program::single(
          [](ThreadContext& ctx) { return sweep_loads_body(ctx, kL2Lines, kL2Passes); });
    };
    k.expects = [](const sim::MachineConfig& c) {
      const double ws = static_cast<double>(kL2Lines);
      const double total = ws * (kL2Passes + 1);
      const double hits = ws * kL2Passes;
      const double degree = static_cast<double>(c.prefetcher.degree);
      std::vector<Expectation> out;
      // Prefetches fill L2/L3 only; the L1 demand stream is untouched.
      out.push_back(Expectation::exact(Event::kLoadsRetired, total));
      out.push_back(Expectation::exact(Event::kL1dAccess, total));
      out.push_back(Expectation::exact(Event::kL1dHit, 0));
      out.push_back(Expectation::exact(Event::kL1dMiss, total));
      out.push_back(Expectation::exact(Event::kMemLoadL1Hit, 0));
      out.push_back(Expectation::exact(Event::kFillBufferAllocations, total));
      // A stride-1 stream triggers the L2 prefetcher on (nearly) every L1
      // miss after the confirmation window, `degree` lines per trigger.
      out.push_back(Expectation::band(Event::kL2PrefetchRequests, ws / 2, degree * total));
      out.push_back(Expectation::exact(Event::kL3PrefetchRequests, 0));
      // Demand hits in the later passes are guaranteed; the first pass may
      // add prefetch-hit noise on top.
      out.push_back(Expectation::band(Event::kL2Hit, hits, total + degree * total));
      out.push_back(Expectation::band(Event::kMemLoadL2Hit, hits, total));
      // Every distinct line is read from DRAM exactly once, plus a small
      // end-of-stream overshoot of in-flight prefetches.
      out.push_back(Expectation::band(Event::kUncImcReads, ws,
                                      ws + degree * (kL2Passes + 1) * 8));
      out.push_back(Expectation::exact(Event::kUncImcWrites, 0));
      return out;
    };
    suite.push_back(std::move(k));
  }

  // --- chase_l3_exact: 1 MiB pointer chase, prefetcher off: exact counts
  // through the whole hierarchy down to local DRAM ---
  {
    KernelSpec k;
    k.name = "chase_l3_exact";
    k.description = "1 MiB pointer chase, prefetcher off: exact full-hierarchy counts";
    k.prepare = disable_prefetcher;
    k.make_program = [] {
      return Program::single([](ThreadContext& ctx) {
        return chase_body(ctx, kChaseLines, kChaseStride, kChasePasses);
      });
    };
    k.expects = [](const sim::MachineConfig& c) {
      const double ws = static_cast<double>(kChaseLines);
      const double total = ws * (kChasePasses + 1);
      const double pages = static_cast<double>(kChaseLines * kCacheLineBytes / kPageBytes);
      std::vector<Expectation> out;
      out.push_back(Expectation::exact(Event::kLoadsRetired, total));
      out.push_back(Expectation::exact(Event::kL1dAccess, total));
      out.push_back(Expectation::exact(Event::kL1dHit, 0));
      out.push_back(Expectation::exact(Event::kL1dMiss, total));
      out.push_back(Expectation::exact(Event::kL1dEviction, 0));
      out.push_back(Expectation::exact(Event::kL2Access, total));
      out.push_back(Expectation::exact(Event::kL2Hit, 0));
      out.push_back(Expectation::exact(Event::kL2Miss, total));
      // Every L2 fill past the cold capacity evicts (clean) lines.
      out.push_back(Expectation::exact(Event::kL2Eviction,
                                       total - static_cast<double>(c.l2.lines())));
      out.push_back(Expectation::exact(Event::kL3Access, total));
      out.push_back(Expectation::exact(Event::kL3Hit, ws * kChasePasses));
      out.push_back(Expectation::exact(Event::kMemLoadL3Hit, ws * kChasePasses));
      out.push_back(Expectation::exact(Event::kL3Miss, ws));
      out.push_back(Expectation::exact(Event::kUncLlcLookups, total));
      out.push_back(Expectation::exact(Event::kUncLlcMisses, ws));
      out.push_back(Expectation::exact(Event::kUncImcReads, ws));
      out.push_back(Expectation::exact(Event::kUncImcWrites, 0));
      out.push_back(Expectation::exact(Event::kMemLoadLocalDram, ws));
      out.push_back(Expectation::exact(Event::kMemLoadRemoteDram, 0));
      out.push_back(Expectation::exact(Event::kUncQpiTxFlits, 0));
      out.push_back(Expectation::exact(Event::kFillBufferAllocations, total));
      out.push_back(Expectation::band(Event::kFillBufferRejects, 0, total * 8));
      out.push_back(Expectation::exact(Event::kPageWalks, pages));
      out.push_back(Expectation::exact(Event::kDtlbAccess, total));
      out.push_back(Expectation::band(Event::kDtlbMiss, pages, total));
      out.push_back(Expectation::band(Event::kStlbHit, 0, total - pages));
      out.push_back(Expectation::band(Event::kPageWalkCycles, walk_lo(c, 256), walk_hi(c, 256)));
      out.push_back(Expectation::exact(Event::kL2PrefetchRequests, 0));
      out.push_back(Expectation::exact(Event::kL3PrefetchRequests, 0));
      return out;
    };
    suite.push_back(std::move(k));
  }

  // --- chase_l3_prefetch: same chase with the prefetcher on; the stride-17
  // stream may only engage the LLC streamer (> 8 lines), so L1/L2 demand
  // exactness survives and only L3-side events widen to bands ---
  {
    KernelSpec k;
    k.name = "chase_l3_prefetch";
    k.description = "1 MiB stride-17 chase, prefetcher on: banded LLC streamer activity";
    k.make_program = [] {
      return Program::single([](ThreadContext& ctx) {
        return chase_body(ctx, kChaseLines, kChaseStride, kChasePasses);
      });
    };
    k.expects = [](const sim::MachineConfig& c) {
      const double ws = static_cast<double>(kChaseLines);
      const double total = ws * (kChasePasses + 1);
      const double degree = static_cast<double>(c.prefetcher.degree);
      std::vector<Expectation> out;
      out.push_back(Expectation::exact(Event::kLoadsRetired, total));
      out.push_back(Expectation::exact(Event::kL1dMiss, total));
      out.push_back(Expectation::exact(Event::kL2Access, total));
      out.push_back(Expectation::exact(Event::kL2Miss, total));
      out.push_back(Expectation::exact(Event::kL2PrefetchRequests, 0));
      out.push_back(Expectation::band(Event::kL3PrefetchRequests, ws / 2, degree * total));
      out.push_back(Expectation::band(Event::kL3Hit, ws * kChasePasses, total + degree * total));
      out.push_back(Expectation::band(Event::kUncImcReads, ws,
                                      ws + degree * (kChasePasses + 1) * 8));
      out.push_back(Expectation::exact(Event::kFillBufferAllocations, total));
      return out;
    };
    suite.push_back(std::move(k));
  }

  // --- chase_remote: cold touch of node-1-bound memory from node 0 ---
  {
    KernelSpec k;
    k.name = "chase_remote";
    k.description = "256 KiB cold touch of node-1 memory from node 0: exact remote counts";
    k.min_nodes = 2;
    k.prepare = disable_prefetcher;
    k.make_program = [] { return Program::single(remote_body); };
    k.expects = [](const sim::MachineConfig& c) {
      const double ws = static_cast<double>(kRemoteLines);
      const double hops = static_cast<double>(c.topology.hops(0, 1));
      const double pages = static_cast<double>(kRemoteLines * kCacheLineBytes / kPageBytes);
      std::vector<Expectation> out;
      out.push_back(Expectation::exact(Event::kLoadsRetired, ws));
      out.push_back(Expectation::exact(Event::kL1dMiss, ws));
      out.push_back(Expectation::exact(Event::kL2Miss, ws));
      out.push_back(Expectation::exact(Event::kL3Miss, ws));
      out.push_back(Expectation::exact(Event::kUncLlcMisses, ws));
      out.push_back(Expectation::exact(Event::kMemLoadRemoteDram, ws));
      out.push_back(Expectation::exact(Event::kMemLoadLocalDram, 0));
      out.push_back(Expectation::exact(Event::kMemLoadRemoteHitm, 0));
      out.push_back(Expectation::exact(Event::kUncImcReads, ws));
      out.push_back(Expectation::exact(Event::kUncQpiTxFlits, ws * hops));
      out.push_back(Expectation::exact(Event::kUncSnoopsReceived, 0));
      out.push_back(Expectation::exact(Event::kUncHitmResponses, 0));
      out.push_back(Expectation::exact(Event::kFillBufferAllocations, ws));
      out.push_back(Expectation::exact(Event::kPageWalks, pages));
      out.push_back(Expectation::exact(Event::kDtlbMiss, pages));
      out.push_back(Expectation::exact(Event::kStlbHit, 0));
      return out;
    };
    suite.push_back(std::move(k));
  }

  // --- hitm_pair: producer dirties lines on node 0, consumer on node 1
  // loads them — every load must be a remote-HITM forward ---
  {
    KernelSpec k;
    k.name = "hitm_pair";
    k.description = "producer/consumer pair: exact remote-HITM forward count";
    k.min_nodes = 2;
    k.affinity = os::AffinityPolicy::kScatter;
    k.prepare = disable_prefetcher;  // L2 prefetch fills bypass the
                                     // directory and would hide the HITMs
    k.make_program = [] {
      auto shared = std::make_shared<HitmShared>();
      Program p;
      p.threads.push_back(
          [shared](ThreadContext& ctx) { return hitm_producer_body(ctx, shared); });
      p.threads.push_back(
          [shared](ThreadContext& ctx) { return hitm_consumer_body(ctx, shared); });
      return p;
    };
    k.expects = [](const sim::MachineConfig&) {
      const double n = static_cast<double>(kHitmLines);
      const double buffer_pages =
          static_cast<double>(kHitmLines * kCacheLineBytes / kPageBytes);
      std::vector<Expectation> out;
      out.push_back(Expectation::exact(Event::kMemLoadRemoteHitm, n));
      out.push_back(Expectation::exact(Event::kLoadsRetired, n));
      // Producer stores plus one barrier-ticket RMW per thread.
      out.push_back(Expectation::exact(Event::kStoresRetired, n + 2));
      out.push_back(Expectation::exact(Event::kAtomicOps, 2));
      // The HITM loads dominate; the barrier ticket line adds a handful of
      // extra snoops/forwards as it bounces between the nodes.
      out.push_back(Expectation::band(Event::kUncHitmResponses, n, n + 4));
      out.push_back(Expectation::band(Event::kUncSnoopsReceived, n, n + 8));
      // Forwards are served cache-to-cache: the producer's cold store
      // misses and the first barrier ticket miss are the only DRAM writes,
      // and nothing reads DRAM at all.
      out.push_back(Expectation::exact(Event::kUncImcWrites, n + 1));
      out.push_back(Expectation::exact(Event::kUncImcReads, 0));
      out.push_back(Expectation::exact(Event::kMemLoadLocalDram, 0));
      out.push_back(Expectation::exact(Event::kMemLoadRemoteDram, 0));
      // Buffer pages are walked once per core, the ticket page once each.
      out.push_back(Expectation::exact(Event::kPageWalks, 2 * buffer_pages + 2));
      return out;
    };
    suite.push_back(std::move(k));
  }

  // --- tlb_stride: page-stride loads through twice the DTLB ---
  {
    KernelSpec k;
    k.name = "tlb_stride";
    k.description = "128-page stride loop: exact DTLB/STLB/page-walk split";
    k.prepare = disable_prefetcher;
    k.make_program = [] { return Program::single(tlb_body); };
    k.expects = [](const sim::MachineConfig& c) {
      const double p = static_cast<double>(kTlbPages);
      const double total = p * (kTlbPasses + 1);
      std::vector<Expectation> out;
      out.push_back(Expectation::exact(Event::kDtlbAccess, total));
      // 128 pages cycled through a 64-entry DTLB: every access misses the
      // DTLB; the STLB holds all 128, so walks happen exactly once a page.
      out.push_back(Expectation::exact(Event::kDtlbMiss, total));
      out.push_back(Expectation::exact(Event::kStlbHit, total - p));
      out.push_back(Expectation::exact(Event::kPageWalks, p));
      out.push_back(Expectation::band(Event::kPageWalkCycles, walk_lo(c, kTlbPages),
                                      walk_hi(c, kTlbPages)));
      out.push_back(Expectation::exact(Event::kL1dLocks, p));
      out.push_back(Expectation::exact(Event::kLoadsRetired, total));
      // Page-stride lines all land in L1 set 0 / eight L2 sets: both levels
      // thrash on every pass, while the L3 holds the whole footprint.
      out.push_back(Expectation::exact(Event::kL1dMiss, total));
      out.push_back(Expectation::exact(Event::kL2Miss, total));
      out.push_back(Expectation::exact(Event::kL3Miss, p));
      out.push_back(Expectation::exact(Event::kL3Hit, total - p));
      out.push_back(Expectation::exact(Event::kMemLoadL3Hit, total - p));
      out.push_back(Expectation::exact(Event::kUncImcReads, p));
      out.push_back(Expectation::exact(Event::kMemLoadLocalDram, p));
      out.push_back(Expectation::exact(Event::kMemLoadL1Hit, 0));
      return out;
    };
    suite.push_back(std::move(k));
  }

  // --- pebs_tail: cold DRAM fills above an armed latency threshold ---
  {
    KernelSpec k;
    k.name = "pebs_tail";
    k.description = "PEBS threshold between L1 and DRAM latency: exact qualifying loads";
    k.prepare = disable_prefetcher;
    k.arm = [](sim::Machine& machine) {
      sim::PebsConfig pebs;
      pebs.latency_threshold = kPebsThreshold;
      pebs.sample_period = 64;
      machine.pmu(0).arm_pebs(pebs);
    };
    k.make_program = [] {
      return Program::single(
          [](ThreadContext& ctx) { return sweep_loads_body(ctx, kPebsLines, kPebsPasses); });
    };
    k.expects = [](const sim::MachineConfig&) {
      const double ws = static_cast<double>(kPebsLines);
      const double total = ws * (kPebsPasses + 1);
      std::vector<Expectation> out;
      // Exactly the cold DRAM fills qualify: DRAM latency (~190, minus
      // jitter) stays above the threshold, L1 hits (~4) far below it.
      out.push_back(Expectation::exact(Event::kLoadLatencyAbove, ws));
      out.push_back(Expectation::exact(Event::kLoadsRetired, total));
      out.push_back(Expectation::exact(Event::kMemLoadL1Hit, total - ws));
      out.push_back(Expectation::exact(Event::kMemLoadLocalDram, ws));
      return out;
    };
    suite.push_back(std::move(k));
  }

  // --- sw_inject: OS software-event path (no PMU register involved) ---
  {
    KernelSpec k;
    k.name = "sw_inject";
    k.description = "software-event injection: exact free-running OS counter";
    k.make_program = [] { return Program::single(sw_body); };
    k.post = [](sim::Machine& machine) {
      machine.count_software_event(Event::kSwPageMigrations, kSwMigrations);
    };
    k.expects = [](const sim::MachineConfig& c) {
      std::vector<Expectation> out;
      out.push_back(Expectation::exact(Event::kSwPageMigrations,
                                       static_cast<double>(kSwMigrations)));
      out.push_back(Expectation::exact(Event::kInstructions, 10));
      out.push_back(Expectation::exact(
          Event::kCycles,
          static_cast<double>(std::max<Cycles>(
              1, static_cast<Cycles>(std::llround(10.0 / c.base_ipc))))));
      return out;
    };
    suite.push_back(std::move(k));
  }

  return suite;
}

}  // namespace

const std::vector<KernelSpec>& kernel_suite() {
  static const std::vector<KernelSpec> suite = build_suite();
  return suite;
}

const KernelSpec& kernel_by_name(const std::string& name) {
  for (const KernelSpec& k : kernel_suite()) {
    if (k.name == name) return k;
  }
  NPAT_CHECK_MSG(false, "unknown validation kernel: " + name);
  return kernel_suite().front();
}

}  // namespace npat::validate
