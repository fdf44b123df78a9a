// Hardware event registry for the simulated PMU.
//
// Mirrors the role of Intel's per-platform event JSON that EvSel consumes:
// every event has a code/umask pair, a short name, a human description and
// a scope (core PMU vs. uncore/socket PMU). The simulator increments all of
// them unconditionally — exactly like real silicon, where events are always
// "happening" and the PMU registers merely select which ones are *counted*.
#pragma once

#include <array>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "util/types.hpp"

namespace npat::sim {

enum class Event : u16 {
  // --- fixed counters (always available, like Intel's FIXC) ---
  kCycles = 0,
  kInstructions,
  kRefCycles,

  // --- pipeline / speculation ---
  kBranches,
  kBranchMisses,
  kSpeculativeJumpsRetired,
  kStallCyclesTotal,
  kStallCyclesMem,
  kUopsIssued,
  kUopsRetired,

  // --- L1 data cache ---
  kL1dAccess,
  kL1dHit,
  kL1dMiss,
  kL1dEviction,
  kL1dLocks,  // cache locked by TLB page walks / atomics (paper Fig. 9)

  // --- L2 ---
  kL2Access,
  kL2Hit,
  kL2Miss,
  kL2Eviction,
  kL2PrefetchRequests,  // prefetches targeting L2 (paper Fig. 8: −90 %)

  // --- L3 / LLC (core-side view) ---
  kL3Access,
  kL3Hit,
  kL3Miss,
  kL3PrefetchRequests,

  // --- fill buffers (line-fill buffers / MSHR) ---
  kFillBufferAllocations,
  kFillBufferRejects,  // demand rejected, all entries busy (Fig. 8: 26 → 3 M)

  // --- TLB ---
  kDtlbAccess,
  kDtlbMiss,
  kStlbHit,
  kPageWalks,
  kPageWalkCycles,

  // --- memory / NUMA data sources (retired load breakdown) ---
  kLoadsRetired,
  kStoresRetired,
  kMemLoadL1Hit,
  kMemLoadL2Hit,
  kMemLoadL3Hit,
  kMemLoadLocalDram,
  kMemLoadRemoteDram,
  kMemLoadRemoteHitm,  // dirty hit in a remote cache
  kLoadLatencyAbove,   // PEBS: loads with latency >= armed threshold

  // --- synchronization ---
  kAtomicOps,
  kLockCycles,

  // --- OS software events (free-running, no PMU register needed) ---
  kSwPageMigrations,

  // --- uncore (per NUMA node / socket) ---
  kUncLlcLookups,
  kUncLlcMisses,
  kUncImcReads,
  kUncImcWrites,
  kUncQpiTxFlits,     // interconnect traffic to remote sockets
  kUncSnoopsReceived,
  kUncHitmResponses,
  kUncEnergyMicroJoules,  // RAPL-style package energy (wattage indicator)

  kEventCount_,
};

inline constexpr usize kEventCount = static_cast<usize>(Event::kEventCount_);

enum class EventScope : u8 { kFixed, kCore, kUncore };

struct EventInfo {
  Event event;
  std::string_view name;        // canonical, e.g. "l1d.replacement"
  u16 code;                     // synthetic event-select code
  u8 umask;                     // synthetic unit mask
  EventScope scope;
  std::string_view category;    // e.g. "cache", "tlb", "numa"
  std::string_view description; // shown by EvSel next to the counter
};

/// Static registry of all simulated events, indexed by Event.
std::span<const EventInfo> all_events();

const EventInfo& event_info(Event event);
std::string_view event_name(Event event);

/// Lookup by canonical name; nullopt if unknown.
std::optional<Event> event_by_name(std::string_view name);

/// Per-core (or per-node, for uncore) bank of always-running counters.
struct CounterBlock {
  std::array<u64, kEventCount> values{};

  u64 operator[](Event e) const noexcept { return values[static_cast<usize>(e)]; }
  void add(Event e, u64 n = 1) noexcept { values[static_cast<usize>(e)] += n; }
  void clear() noexcept { values.fill(0); }

  CounterBlock& operator+=(const CounterBlock& other) noexcept {
    for (usize i = 0; i < kEventCount; ++i) values[i] += other.values[i];
    return *this;
  }
};

}  // namespace npat::sim
