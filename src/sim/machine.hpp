// The simulated NUMA machine: cores with private L1/L2, TLBs, fill buffers,
// prefetchers and branch predictors; sockets with a shared L3, a memory
// controller and uncore counters; a coherence directory and an interconnect
// between sockets.
//
// The machine executes *primitive operations* (load/store/atomic/compute/
// branch) issued by the OS layer with already-translated physical
// addresses, advances per-core cycle clocks, and increments the full
// hardware event set. It deliberately models costs, not data values.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "sim/branch_predictor.hpp"
#include "sim/cache.hpp"
#include "sim/coherence.hpp"
#include "sim/data_source.hpp"
#include "sim/events.hpp"
#include "sim/fill_buffer.hpp"
#include "sim/memory_system.hpp"
#include "sim/pmu.hpp"
#include "sim/prefetcher.hpp"
#include "sim/tlb.hpp"
#include "sim/topology.hpp"
#include "util/random.hpp"
#include "util/types.hpp"

namespace npat::sim {

/// Physical addresses encode the home node in the top bits.
constexpr PhysAddr make_paddr(NodeId node, u64 offset) noexcept {
  return (static_cast<u64>(node) << 40) | offset;
}
constexpr NodeId node_of_paddr(PhysAddr paddr) noexcept {
  return static_cast<NodeId>(paddr >> 40);
}

/// Deliberate perturbation of one counter path, applied when counter
/// snapshots are read (uncore_counters / aggregate_counters). Exists for
/// the validation harness's mutation smoke tests: the refutation gate must
/// demonstrably catch a simulator whose counter semantics drifted, and the
/// cheapest honest drift is scaling one event at the snapshot boundary.
/// Per-core reads through core_counters() are unaffected (they return the
/// raw banks by reference).
struct CounterMutation {
  Event event = Event::kCycles;
  double scale = 1.0;
};

struct MachineConfig {
  Topology topology = make_fully_connected(1, 1);
  CacheConfig l1 = {"L1D", 32 * 1024, 8, 64, 4};
  CacheConfig l2 = {"L2", 256 * 1024, 8, 64, 12};
  CacheConfig l3 = {"L3", 8 * 1024 * 1024, 16, 64, 60};  // per socket
  TlbConfig tlb;
  FillBufferConfig fill_buffer;
  PrefetcherConfig prefetcher;
  BranchPredictorConfig branch;
  CoherenceCosts coherence;
  MemoryConfig memory;

  /// Instructions per cycle when the pipeline is not stalled.
  double base_ipc = 2.0;
  /// Issue cost of a memory access in cycles. Out-of-order cores keep many
  /// loads in flight, so the pipeline charge per access is ~1 cycle; the
  /// *latency* of a miss is absorbed by the line-fill buffers, and stalls
  /// emerge when those fill up (the MLP model behind Fig. 8's fill-buffer
  /// reject explosion).
  Cycles mem_issue_cycles = 1;
  /// Fraction of miss latency exposed as dependent-use stall at *full*
  /// fill-buffer occupancy (quartic in occupancy below that). Default 0:
  /// out-of-order execution hides miss latency until the fill buffers
  /// saturate, and the buffer-full stall is what throttles the core — the
  /// mechanism behind Fig. 8's fill-buffer reject explosion. Raise it for
  /// an in-order-ish ablation.
  double stall_exposure = 0.0;
  Cycles atomic_latency = 24;

  /// Energy model (drives the RAPL-style uncore counter).
  double energy_pj_per_instruction = 250.0;
  double energy_pj_per_dram_access = 12000.0;
  double energy_pj_per_hop = 4000.0;

  u64 seed = 12345;

  /// Unset in normal operation; see CounterMutation.
  std::optional<CounterMutation> counter_mutation;
};

class Machine {
 public:
  explicit Machine(MachineConfig config);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  const MachineConfig& config() const noexcept { return config_; }
  const Topology& topology() const noexcept { return config_.topology; }
  u32 cores() const noexcept { return topology().total_cores(); }
  u32 nodes() const noexcept { return topology().nodes; }

  // --- clocks ---
  Cycles core_clock(CoreId core) const { return core_state(core).clock; }
  /// Advances a core's clock doing useful (busy) work.
  void advance(CoreId core, Cycles cycles);
  /// Advances a core's clock *waiting* (spin/synchronization): counted as
  /// stall, which suppresses speculative retirement afterwards.
  void wait(CoreId core, Cycles cycles);
  /// Maximum core clock; the OS layer keeps cores loosely synchronized.
  Cycles max_clock() const;

  // --- execution primitives ---
  struct AccessResult {
    Cycles latency = 0;
    DataSource source = DataSource::kL1;
  };

  /// `tlb_page` is the translation-cache key for the access (the OS layer
  /// supplies it; huge pages use a coarser key, so one TLB entry covers
  /// 512 small pages). The three-argument atomic_rmw assumes 4 KiB pages.
  AccessResult load(CoreId core, PhysAddr paddr, VirtAddr vaddr, u64 tlb_page);
  AccessResult store(CoreId core, PhysAddr paddr, VirtAddr vaddr, u64 tlb_page);
  AccessResult atomic_rmw(CoreId core, PhysAddr paddr, VirtAddr vaddr, u64 tlb_page);
  /// Locked read-modify-write (used for barriers/locks in workloads).
  AccessResult atomic_rmw(CoreId core, PhysAddr paddr, VirtAddr vaddr);
  /// Retires `count` ALU instructions.
  void execute(CoreId core, u64 count);
  /// Executes one branch instruction at static site `site_key`.
  void branch(CoreId core, u64 site_key, bool taken);

  /// Invalidate translation caching for a freed page (all cores).
  void invalidate_page(u64 page);

  /// Records an OS software event (e.g. NUMA page migrations). Software
  /// events are aggregated on core 0's block, like perf's per-process
  /// software counters.
  void count_software_event(Event event, u64 count = 1);

  // --- coherence participation ---
  /// The directory is consulted only when enabled (the OS layer enables it
  /// for multi-threaded programs; tracking single-threaded streams would
  /// only burn memory).
  void set_coherence_enabled(bool enabled) { coherence_enabled_ = enabled; }
  bool coherence_enabled() const noexcept { return coherence_enabled_; }

  // --- PMU / counters ---
  CorePmu& pmu(CoreId core) { return core_state(core).pmu; }
  const CorePmu& pmu(CoreId core) const { return core_state(core).pmu; }
  const CounterBlock& core_counters(CoreId core) const { return core_state(core).pmu.counters(); }
  /// Snapshot of a node's uncore counters (energy materialized on read).
  CounterBlock uncore_counters(NodeId node) const;
  /// Sum over all cores plus all uncore blocks (system-wide totals).
  CounterBlock aggregate_counters() const;

  /// Folds every core's in-flight per-task counter slice (see
  /// CorePmu::flush_current_task) so task-domain reads are consistent
  /// across cores.
  void flush_task_accounting();

  /// Memory-stall EMA of a core in [0,1]; feeds the speculation model.
  double stall_ratio(CoreId core) const { return core_state(core).stall_ema; }

  /// Resets caches, TLBs, predictors, counters and clocks (fresh run).
  /// Clearing a cache is O(1) (see sim/cache.hpp), so a reset costs the
  /// same on a 45 MiB L3 as on a tiny one.
  void reset();

 private:
  friend struct MachineTestPeer;

  struct CoreState {
    Cache l1;
    Cache l2;
    Tlb tlb;
    FillBuffer fill_buffer;
    Prefetcher prefetcher;
    BranchPredictor branch;
    CorePmu pmu;
    Cycles clock = 0;
    double stall_ema = 0.0;
    double spec_credit = 0.0;

    explicit CoreState(const MachineConfig& config);
  };

  struct NodeState {
    Cache l3;
    CounterBlock uncore;
    double energy_pj = 0.0;

    explicit NodeState(const MachineConfig& config);
  };

  CoreState& core_state(CoreId core);
  const CoreState& core_state(CoreId core) const;
  NodeState& node_state(NodeId node);
  const NodeState& node_state(NodeId node) const;

  /// Shared memory-access path; is_write selects store semantics.
  AccessResult access_impl(CoreId core, PhysAddr paddr, VirtAddr vaddr, u64 tlb_page,
                           bool is_write, bool is_atomic);
  void charge_cycles(CoreId core, Cycles busy, Cycles stalled);
  void update_stall_ema(CoreState& state, Cycles busy, Cycles stalled);
  void issue_prefetches(CoreState& cs, NodeState& ns, NodeId node, u64 line);

  MachineConfig config_;
  std::vector<CoreState> cores_;
  std::vector<NodeState> nodes_;
  CoherenceDirectory directory_;
  MemorySystem memory_;
  util::Xoshiro256ss rng_;
  bool coherence_enabled_ = false;
  std::vector<PrefetchRequest> prefetch_scratch_;
};

}  // namespace npat::sim
