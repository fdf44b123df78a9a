#include "sim/events.hpp"

#include <unordered_map>

#include "util/check.hpp"

namespace npat::sim {

namespace {

// clang-format off
constexpr EventInfo kEvents[] = {
    {Event::kCycles, "cpu.cycles", 0x3C, 0x00, EventScope::kFixed, "pipeline",
     "Core clock cycles while the logical processor is active."},
    {Event::kInstructions, "inst.retired", 0xC0, 0x00, EventScope::kFixed, "pipeline",
     "Instructions retired from execution."},
    {Event::kRefCycles, "cpu.ref_cycles", 0x3C, 0x01, EventScope::kFixed, "pipeline",
     "Reference cycles at the nominal TSC frequency."},

    {Event::kBranches, "br_inst.retired", 0xC4, 0x00, EventScope::kCore, "branch",
     "Branch instructions retired."},
    {Event::kBranchMisses, "br_misp.retired", 0xC5, 0x00, EventScope::kCore, "branch",
     "Mispredicted branch instructions retired."},
    {Event::kSpeculativeJumpsRetired, "br_inst.spec_exec", 0x89, 0x04, EventScope::kCore, "branch",
     "Speculatively executed jump instructions that later retired; drops when"
     " the pipeline is starved by memory stalls (paper Fig. 9)."},
    {Event::kStallCyclesTotal, "cycle_activity.stalls_total", 0xA3, 0x04, EventScope::kCore,
     "pipeline", "Cycles with no uops executed (any stall reason)."},
    {Event::kStallCyclesMem, "cycle_activity.stalls_mem_any", 0xA3, 0x14, EventScope::kCore,
     "pipeline", "Execution stall cycles while at least one demand load is outstanding."},
    {Event::kUopsIssued, "uops_issued.any", 0x0E, 0x01, EventScope::kCore, "pipeline",
     "Micro-ops issued by the front end."},
    {Event::kUopsRetired, "uops_retired.all", 0xC2, 0x01, EventScope::kCore, "pipeline",
     "Micro-ops retired."},

    {Event::kL1dAccess, "l1d.access", 0x40, 0x01, EventScope::kCore, "cache",
     "Demand loads and stores that looked up the L1 data cache."},
    {Event::kL1dHit, "l1d.hit", 0x40, 0x02, EventScope::kCore, "cache",
     "Demand references that hit the L1 data cache."},
    {Event::kL1dMiss, "l1d.replacement", 0x51, 0x01, EventScope::kCore, "cache",
     "L1 data cache misses (lines brought in, replacing another)."},
    {Event::kL1dEviction, "l1d.eviction", 0x51, 0x02, EventScope::kCore, "cache",
     "Modified lines evicted from the L1 data cache."},
    {Event::kL1dLocks, "l1d.locks", 0x63, 0x02, EventScope::kCore, "cache",
     "Cycles the L1D is locked by TLB page walks of the uncore or atomic"
     " operations (paper Fig. 9 correlates this with thread count)."},

    {Event::kL2Access, "l2_rqsts.references", 0x24, 0xFF, EventScope::kCore, "cache",
     "All demand and prefetch requests that reached the L2 cache."},
    {Event::kL2Hit, "l2_rqsts.hit", 0x24, 0xD7, EventScope::kCore, "cache",
     "Requests that hit the L2 cache."},
    {Event::kL2Miss, "l2_rqsts.miss", 0x24, 0x3F, EventScope::kCore, "cache",
     "Requests that missed the L2 cache."},
    {Event::kL2Eviction, "l2_lines_out.any", 0xF2, 0x07, EventScope::kCore, "cache",
     "Lines evicted from L2."},
    {Event::kL2PrefetchRequests, "l2_rqsts.pf_to_l2", 0x24, 0x30, EventScope::kCore, "prefetch",
     "Hardware prefetches targeting L2; the streamer redirects to L3 when"
     " strides exceed a page (paper Fig. 8: −90 % in the miss case)."},

    {Event::kL3Access, "llc.references", 0x2E, 0x4F, EventScope::kCore, "cache",
     "Demand and prefetch requests that reached the last-level cache."},
    {Event::kL3Hit, "llc.hits", 0x2E, 0x4E, EventScope::kCore, "cache",
     "Requests that hit the last-level cache."},
    {Event::kL3Miss, "llc.misses", 0x2E, 0x41, EventScope::kCore, "cache",
     "Requests that missed the last-level cache."},
    {Event::kL3PrefetchRequests, "llc.pf_requests", 0x2E, 0x72, EventScope::kCore, "prefetch",
     "Streamer prefetches that bypass L2 and fill into the LLC only."},

    {Event::kFillBufferAllocations, "l1d_pend_miss.fb_alloc", 0x48, 0x02, EventScope::kCore,
     "cache", "Line-fill buffer entries allocated for L1D misses."},
    {Event::kFillBufferRejects, "l1d_pend_miss.fb_full", 0x48, 0x04, EventScope::kCore, "cache",
     "Demand requests rejected because every line-fill buffer entry was busy"
     " (paper Fig. 8: 26 occurrences vs ~3 million)."},

    {Event::kDtlbAccess, "dtlb.access", 0x08, 0x01, EventScope::kCore, "tlb",
     "First-level data TLB lookups."},
    {Event::kDtlbMiss, "dtlb_load_misses.any", 0x08, 0x81, EventScope::kCore, "tlb",
     "First-level data TLB misses (STLB consulted)."},
    {Event::kStlbHit, "dtlb_load_misses.stlb_hit", 0x5F, 0x04, EventScope::kCore, "tlb",
     "DTLB misses that hit the unified second-level TLB."},
    {Event::kPageWalks, "dtlb_load_misses.walk_completed", 0x08, 0x0E, EventScope::kCore, "tlb",
     "Hardware page walks completed."},
    {Event::kPageWalkCycles, "dtlb_load_misses.walk_duration", 0x08, 0x10, EventScope::kCore,
     "tlb", "Cycles spent in hardware page walks."},

    {Event::kLoadsRetired, "mem_uops.loads", 0xD0, 0x81, EventScope::kCore, "memory",
     "Load micro-ops retired."},
    {Event::kStoresRetired, "mem_uops.stores", 0xD0, 0x82, EventScope::kCore, "memory",
     "Store micro-ops retired."},
    {Event::kMemLoadL1Hit, "mem_load_uops.l1_hit", 0xD1, 0x01, EventScope::kCore, "memory",
     "Retired loads with L1 data sources."},
    {Event::kMemLoadL2Hit, "mem_load_uops.l2_hit", 0xD1, 0x02, EventScope::kCore, "memory",
     "Retired loads with L2 data sources."},
    {Event::kMemLoadL3Hit, "mem_load_uops.l3_hit", 0xD1, 0x04, EventScope::kCore, "memory",
     "Retired loads with LLC data sources."},
    {Event::kMemLoadLocalDram, "mem_load_uops.local_dram", 0xD3, 0x01, EventScope::kCore, "numa",
     "Retired loads served from DRAM attached to the local socket."},
    {Event::kMemLoadRemoteDram, "mem_load_uops.remote_dram", 0xD3, 0x04, EventScope::kCore,
     "numa", "Retired loads served from DRAM attached to a remote socket."},
    {Event::kMemLoadRemoteHitm, "mem_load_uops.remote_hitm", 0xD3, 0x10, EventScope::kCore,
     "numa", "Retired loads that hit modified data in a remote cache."},
    {Event::kLoadLatencyAbove, "mem_trans_retired.load_latency", 0xCD, 0x01, EventScope::kCore,
     "memory", "PEBS: retired loads whose use latency met or exceeded the armed"
     " threshold (Memhist's building block)."},

    {Event::kAtomicOps, "mem_uops.lock_loads", 0xD0, 0x21, EventScope::kCore, "sync",
     "Locked (atomic) memory operations retired."},
    {Event::kLockCycles, "lock_cycles.cache_lock", 0x63, 0x01, EventScope::kCore, "sync",
     "Cycles a cache-line lock was held for atomics."},

    {Event::kSwPageMigrations, "sw.numa_page_migrations", 0x00, 0x05, EventScope::kFixed,
     "os", "Software event: pages migrated between NUMA nodes by the kernel's"
     " automatic NUMA balancing."},

    {Event::kUncLlcLookups, "unc_cbo.llc_lookups", 0x34, 0x11, EventScope::kUncore, "uncore",
     "Uncore: LLC lookups on this socket from any core."},
    {Event::kUncLlcMisses, "unc_cbo.llc_misses", 0x34, 0x21, EventScope::kUncore, "uncore",
     "Uncore: LLC misses on this socket."},
    {Event::kUncImcReads, "unc_imc.cas_reads", 0x04, 0x03, EventScope::kUncore, "uncore",
     "Uncore: DRAM CAS read commands issued by this socket's memory controller."},
    {Event::kUncImcWrites, "unc_imc.cas_writes", 0x04, 0x0C, EventScope::kUncore, "uncore",
     "Uncore: DRAM CAS write commands issued by this socket's memory controller."},
    {Event::kUncQpiTxFlits, "unc_qpi.tx_flits", 0x00, 0x02, EventScope::kUncore, "uncore",
     "Uncore: interconnect flits transmitted to remote sockets."},
    {Event::kUncSnoopsReceived, "unc_cbo.snoops_rx", 0x35, 0x01, EventScope::kUncore, "uncore",
     "Uncore: snoop requests received from remote sockets."},
    {Event::kUncHitmResponses, "unc_cbo.hitm_rsp", 0x35, 0x08, EventScope::kUncore, "uncore",
     "Uncore: snoops answered with modified data (HITM)."},
    {Event::kUncEnergyMicroJoules, "unc_rapl.pkg_energy", 0x01, 0x00, EventScope::kUncore,
     "power", "Uncore: accumulated package energy in microjoules (RAPL-style;"
     " the paper cites wattage as an indicator of hidden thermal state)."},
};
// clang-format on

static_assert(std::size(kEvents) == kEventCount,
              "every Event enumerator needs a registry entry");

constexpr bool registry_is_ordered() {
  for (usize i = 0; i < std::size(kEvents); ++i) {
    if (static_cast<usize>(kEvents[i].event) != i) return false;
  }
  return true;
}
static_assert(registry_is_ordered(), "registry must be indexed by Event value");

}  // namespace

std::span<const EventInfo> all_events() { return kEvents; }

const EventInfo& event_info(Event event) {
  const usize idx = static_cast<usize>(event);
  NPAT_CHECK_MSG(idx < kEventCount, "invalid event id");
  return kEvents[idx];
}

std::string_view event_name(Event event) { return event_info(event).name; }

std::optional<Event> event_by_name(std::string_view name) {
  static const auto index = [] {
    std::unordered_map<std::string_view, Event> map;
    for (const auto& info : kEvents) map.emplace(info.name, info.event);
    return map;
  }();
  const auto it = index.find(name);
  if (it == index.end()) return std::nullopt;
  return it->second;
}

}  // namespace npat::sim
