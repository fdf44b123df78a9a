#include "sim/machine.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace npat::sim {

namespace {
Cycles execute_busy_cycles(u64 count, double base_ipc) {
  return std::max<Cycles>(
      1, static_cast<Cycles>(std::llround(static_cast<double>(count) / base_ipc)));
}
}  // namespace

Machine::CoreState::CoreState(const MachineConfig& config, NodeId node_of_core)
    : l1(config.l1),
      l2(config.l2),
      tlb(config.tlb),
      fill_buffer(config.fill_buffer),
      prefetcher(config.prefetcher),
      branch(config.branch),
      node(node_of_core) {}

Machine::NodeState::NodeState(const MachineConfig& config) : l3(config.l3) {}

Machine::Machine(MachineConfig config)
    : config_(std::move(config)),
      directory_(config_.topology.nodes, config_.coherence),
      memory_(config_.topology, config_.memory, config_.seed ^ 0xfeedULL),
      rng_(config_.seed) {
  config_.topology.validate();
  NPAT_CHECK_MSG(config_.base_ipc > 0.0, "base IPC must be positive");
  cores_.reserve(cores());
  for (u32 c = 0; c < cores(); ++c) cores_.emplace_back(config_, topology().node_of_core(c));
  nodes_.reserve(nodes());
  for (u32 n = 0; n < nodes(); ++n) nodes_.emplace_back(config_);
  for (usize count = 0; count < execute_cycles_.size(); ++count) {
    execute_cycles_[count] = execute_busy_cycles(count, config_.base_ipc);
  }
}

Machine::CoreState& Machine::core_state(CoreId core) {
  NPAT_CHECK_MSG(core < cores_.size(), "core id out of range");
  return cores_[core];
}
const Machine::CoreState& Machine::core_state(CoreId core) const {
  NPAT_CHECK_MSG(core < cores_.size(), "core id out of range");
  return cores_[core];
}
const Machine::NodeState& Machine::node_state(NodeId node) const {
  NPAT_CHECK_MSG(node < nodes_.size(), "node id out of range");
  return nodes_[node];
}

void Machine::advance(CoreId core, Cycles cycles) { charge_cycles(core_state(core), cycles, 0); }

void Machine::wait(CoreId core, Cycles cycles) { charge_cycles(core_state(core), 0, cycles); }

Cycles Machine::max_clock() const {
  Cycles worst = 0;
  for (const auto& c : cores_) worst = std::max(worst, c.clock);
  return worst;
}

void Machine::charge_cycles(CoreState& cs, Cycles busy, Cycles stalled) {
  const Cycles total = busy + stalled;
  cs.clock += total;
  cs.pmu.counters().add(Event::kCycles, total);
  cs.pmu.counters().add(Event::kRefCycles, total);
  if (stalled > 0) cs.pmu.counters().add(Event::kStallCyclesTotal, stalled);
}

void Machine::issue_prefetches(CoreState& cs, NodeState& ns, u64 line) {
  const NodeId node = cs.node;
  cs.prefetcher.observe(line, prefetch_scratch_);
  for (const auto& request : prefetch_scratch_) {
    // A prefetch that reaches DRAM fetches from the line's *home* node and
    // consumes interconnect bandwidth when that node is remote.
    const NodeId home = node_of_paddr(request.line * kCacheLineBytes);
    if (home >= nodes()) continue;  // prefetcher ran past installed memory
    auto charge_dram_fetch = [&] {
      nodes_[home].uncore.add(Event::kUncImcReads);
      if (home != node) {
        ns.uncore.add(Event::kUncQpiTxFlits, topology().hops(node, home));
      }
    };

    if (request.target == PrefetchTarget::kL2) {
      // Prefetch requests look up L2 like demand traffic does — the real
      // L2_RQSTS umasks include prefetch hits and misses.
      cs.pmu.counters().add(Event::kL2PrefetchRequests);
      cs.pmu.counters().add(Event::kL2Access);
      const auto outcome = cs.l2.fill(request.line);
      if (outcome.hit) {
        cs.pmu.counters().add(Event::kL2Hit);
      } else {
        // The prefetch pulls the line from L3/DRAM in the background; only
        // bandwidth is consumed, the core does not stall.
        cs.pmu.counters().add(Event::kL2Miss);
        cs.pmu.counters().add(Event::kL3Access);
        ns.uncore.add(Event::kUncLlcLookups);
        if (ns.l3.access(request.line, false).hit) {
          cs.pmu.counters().add(Event::kL3Hit);
        } else {
          cs.pmu.counters().add(Event::kL3Miss);
          ns.uncore.add(Event::kUncLlcMisses);
          charge_dram_fetch();
        }
      }
    } else {
      // LLC streamer: fills into L3 only, bypassing L2 entirely.
      cs.pmu.counters().add(Event::kL3PrefetchRequests);
      cs.pmu.counters().add(Event::kL3Access);
      ns.uncore.add(Event::kUncLlcLookups);
      if (ns.l3.fill(request.line).hit) {
        cs.pmu.counters().add(Event::kL3Hit);
      } else {
        cs.pmu.counters().add(Event::kL3Miss);
        ns.uncore.add(Event::kUncLlcMisses);
        charge_dram_fetch();
      }
    }
  }
}

Machine::AccessResult Machine::access_impl(CoreId core, PhysAddr paddr, VirtAddr vaddr,
                                           u64 tlb_page, bool is_write, bool is_atomic) {
  CoreState& cs = core_state(core);
  const NodeId node = cs.node;
  NodeState& ns = nodes_[node];
  const NodeId target_node = node_of_paddr(paddr);
  NPAT_CHECK_MSG(target_node < nodes(), "physical address outside installed memory");
  NodeState& target = nodes_[target_node];
  const u64 line = cache_line_of(paddr);
  const Cycles now = cs.clock;
  auto& counters = cs.pmu.counters();

  counters.add(is_write ? Event::kStoresRetired : Event::kLoadsRetired);
  counters.add(Event::kInstructions);
  counters.add(Event::kUopsIssued);
  counters.add(Event::kUopsRetired);
  ns.energy_pj += config_.energy_pj_per_instruction;

  Cycles latency = 0;
  Cycles translation_stall = 0;
  Cycles miss_exposed = 0;

  // --- address translation ---
  counters.add(Event::kDtlbAccess);
  switch (cs.tlb.access(tlb_page)) {
    case TlbOutcome::kDtlbHit:
      break;
    case TlbOutcome::kStlbHit:
      counters.add(Event::kDtlbMiss);
      counters.add(Event::kStlbHit);
      // STLB lookups overlap well with OoO execution; expose a sliver.
      latency += 7;
      translation_stall = 2;
      break;
    case TlbOutcome::kPageWalk: {
      counters.add(Event::kDtlbMiss);
      counters.add(Event::kPageWalks);
      const Cycles walk = config_.tlb.walk_latency + rng_.below(8);
      counters.add(Event::kPageWalkCycles, walk);
      // The page walker locks the L1D while it injects its loads.
      counters.add(Event::kL1dLocks);
      latency += walk;
      translation_stall = walk / 2;
      break;
    }
  }

  // --- cache hierarchy ---
  counters.add(Event::kL1dAccess);
  DataSource source = DataSource::kL1;
  const auto l1_outcome = cs.l1.access(line, is_write);
  latency += config_.l1.hit_latency;

  if (l1_outcome.hit) {
    counters.add(Event::kL1dHit);
    if (!is_write) counters.add(Event::kMemLoadL1Hit);
  } else {
    counters.add(Event::kL1dMiss);
    if (l1_outcome.evicted_line && l1_outcome.evicted_dirty) {
      counters.add(Event::kL1dEviction);
    }

    counters.add(Event::kL2Access);
    const auto l2_outcome = cs.l2.access(line, is_write);
    Cycles fill_latency = 0;

    if (l2_outcome.hit) {
      counters.add(Event::kL2Hit);
      if (!is_write) counters.add(Event::kMemLoadL2Hit);
      source = DataSource::kL2;
      fill_latency = config_.l2.hit_latency - config_.l1.hit_latency;
    } else {
      counters.add(Event::kL2Miss);
      if (l2_outcome.evicted_line) counters.add(Event::kL2Eviction);

      counters.add(Event::kL3Access);
      ns.uncore.add(Event::kUncLlcLookups);
      const auto l3_outcome = ns.l3.access(line, is_write);

      if (l3_outcome.hit) {
        counters.add(Event::kL3Hit);
        if (!is_write) counters.add(Event::kMemLoadL3Hit);
        source = DataSource::kL3;
        fill_latency = config_.l3.hit_latency - config_.l1.hit_latency;
      } else {
        counters.add(Event::kL3Miss);
        ns.uncore.add(Event::kUncLlcMisses);

        // Coherence: a remote cache may hold the line modified.
        bool served_by_remote_cache = false;
        if (coherence_enabled_) {
          const auto coherence = is_write ? directory_.on_write(line, core, node)
                                          : directory_.on_read(line, core, node);
          if (coherence.remote_snoops > 0) {
            target.uncore.add(Event::kUncSnoopsReceived, coherence.remote_snoops);
          }
          if (coherence.remote_hitm) {
            // kMemLoadRemoteHitm is a *load* data-source event; stores and
            // RMWs still pay the forward but retire as stores.
            if (!is_write) counters.add(Event::kMemLoadRemoteHitm);
            target.uncore.add(Event::kUncHitmResponses);
            source = DataSource::kRemoteCacheHitm;
            served_by_remote_cache = true;
          }
          fill_latency += coherence.extra_latency;
        }

        if (!served_by_remote_cache) {
          const auto dram = memory_.access(node, target_node, now);
          fill_latency += dram.latency;
          target.uncore.add(is_write ? Event::kUncImcWrites : Event::kUncImcReads);
          target.energy_pj += config_.energy_pj_per_dram_access;
          if (target_node != node) {
            source = DataSource::kRemoteDram;
            if (!is_write) counters.add(Event::kMemLoadRemoteDram);
            ns.uncore.add(Event::kUncQpiTxFlits, dram.hops);
            ns.energy_pj += config_.energy_pj_per_hop * dram.hops;
          } else {
            source = DataSource::kLocalDram;
            if (!is_write) counters.add(Event::kMemLoadLocalDram);
          }
        }
      }
    }

    // Line-fill buffer: the miss occupies an entry for its whole duration.
    // Misses with free slots overlap completely (MLP); a full buffer
    // rejects the demand and stalls the pipeline until a slot frees, which
    // is what throttles a miss-bound core — the mechanism behind Fig. 8's
    // fill-buffer reject explosion.
    counters.add(Event::kFillBufferAllocations);
    const auto fb = cs.fill_buffer.allocate(now, fill_latency);
    if (fb.rejects > 0) {
      counters.add(Event::kFillBufferRejects, fb.rejects);
    }
    miss_exposed = fb.stall;
    fill_latency += fb.stall;
    latency += fill_latency;

    // Hardware prefetchers observe the demand-miss stream.
    issue_prefetches(cs, ns, line);
  }

  if (coherence_enabled_ && l1_outcome.hit && is_write) {
    // Writes that hit locally may still need to invalidate remote sharers.
    const auto coherence = directory_.on_write(line, core, node);
    if (coherence.remote_snoops > 0) {
      target.uncore.add(Event::kUncSnoopsReceived, coherence.remote_snoops);
      latency += coherence.extra_latency;
    }
  } else if (coherence_enabled_ && l1_outcome.hit && !is_write) {
    directory_.on_read(line, core, node);
  }

  if (is_atomic) {
    counters.add(Event::kAtomicOps);
    counters.add(Event::kL1dLocks);
    counters.add(Event::kLockCycles, config_.atomic_latency);
    latency += config_.atomic_latency;
  }

  // --- pipeline accounting ---
  // TLB walks and atomics serialize the pipeline fully; miss latency is
  // mostly hidden behind the fill buffers (miss_exposed computed above).
  const Cycles busy = config_.mem_issue_cycles;
  Cycles exposed = miss_exposed + translation_stall;
  if (is_atomic) exposed += config_.atomic_latency;
  if (exposed > 0) counters.add(Event::kStallCyclesMem, exposed);
  charge_cycles(cs, busy, exposed);

  AccessResult result;
  result.latency = latency;
  result.source = source;
  if (!is_write) cs.pmu.on_load_retired(vaddr, latency, source, cs.clock);
  return result;
}

Machine::AccessResult Machine::load(CoreId core, PhysAddr paddr, VirtAddr vaddr,
                                    u64 tlb_page) {
  return access_impl(core, paddr, vaddr, tlb_page, /*is_write=*/false, /*is_atomic=*/false);
}

Machine::AccessResult Machine::store(CoreId core, PhysAddr paddr, VirtAddr vaddr,
                                     u64 tlb_page) {
  return access_impl(core, paddr, vaddr, tlb_page, /*is_write=*/true, /*is_atomic=*/false);
}

Machine::AccessResult Machine::atomic_rmw(CoreId core, PhysAddr paddr, VirtAddr vaddr,
                                          u64 tlb_page) {
  return access_impl(core, paddr, vaddr, tlb_page, /*is_write=*/true, /*is_atomic=*/true);
}

Machine::AccessResult Machine::atomic_rmw(CoreId core, PhysAddr paddr, VirtAddr vaddr) {
  return atomic_rmw(core, paddr, vaddr, page_of(vaddr));
}

void Machine::execute(CoreId core, u64 count) {
  if (count == 0) return;
  CoreState& cs = core_state(core);
  auto& counters = cs.pmu.counters();
  counters.add(Event::kInstructions, count);
  counters.add(Event::kUopsIssued, count);
  counters.add(Event::kUopsRetired, count);
  nodes_[cs.node].energy_pj += config_.energy_pj_per_instruction * static_cast<double>(count);
  const Cycles busy = count < execute_cycles_.size() ? execute_cycles_[count]
                                                    : execute_busy_cycles(count, config_.base_ipc);
  charge_cycles(cs, busy, 0);
}

void Machine::branch(CoreId core, u64 site_key, bool taken) {
  CoreState& cs = core_state(core);
  auto& counters = cs.pmu.counters();
  counters.add(Event::kInstructions);
  counters.add(Event::kBranches);
  counters.add(Event::kUopsIssued);
  counters.add(Event::kUopsRetired);

  const auto outcome = cs.branch.execute(site_key, taken);
  Cycles stall = 0;
  if (outcome.mispredicted) {
    counters.add(Event::kBranchMisses);
    stall = cs.branch.config().misprediction_penalty;
    // Squashed wrong-path work shows up as extra issued uops.
    counters.add(Event::kUopsIssued, 4);
  }

  // Speculative jump retirement: the front end can only run ahead of the
  // pipeline while the core actually executes; stall and wait cycles are
  // lost speculation opportunity. The per-branch credit therefore scales
  // with the core's achieved duty cycle (busy / total) — the effect behind
  // the strong negative thread-count correlation in the paper's Fig. 9.
  const double total_cycles = static_cast<double>(counters[Event::kCycles]);
  const double stalled_cycles = static_cast<double>(counters[Event::kStallCyclesTotal]);
  const double duty =
      total_cycles > 0.0 ? 1.0 - stalled_cycles / total_cycles : 1.0;
  cs.spec_credit += duty * (outcome.mispredicted ? 0.25 : 1.0);
  while (cs.spec_credit >= 1.0) {
    counters.add(Event::kSpeculativeJumpsRetired);
    cs.spec_credit -= 1.0;
  }

  charge_cycles(cs, 1, stall);
}

void Machine::invalidate_page(u64 page) {
  for (auto& core : cores_) core.tlb.invalidate(page);
}

void Machine::count_software_event(Event event, u64 count) {
  core_state(0).pmu.counters().add(event, count);
}

namespace {
void apply_mutation(CounterBlock& block, const CounterMutation& mutation) {
  u64& value = block.values[static_cast<usize>(mutation.event)];
  value = static_cast<u64>(std::llround(static_cast<double>(value) * mutation.scale));
}
}  // namespace

CounterBlock Machine::uncore_counters(NodeId node) const {
  const NodeState& state = node_state(node);
  CounterBlock snapshot = state.uncore;
  snapshot.values[static_cast<usize>(Event::kUncEnergyMicroJoules)] =
      static_cast<u64>(std::llround(state.energy_pj / 1e6));
  if (config_.counter_mutation &&
      event_info(config_.counter_mutation->event).scope == EventScope::kUncore) {
    apply_mutation(snapshot, *config_.counter_mutation);
  }
  return snapshot;
}

CounterBlock Machine::aggregate_counters() const {
  CounterBlock total;
  for (u32 c = 0; c < cores(); ++c) total += core_counters(c);
  // Uncore snapshots arrive already mutated (per node); core-scope events
  // are scaled once on the aggregated total so the perturbation matches
  // what a single scaled counter bank would have reported.
  for (u32 n = 0; n < nodes(); ++n) total += uncore_counters(n);
  if (config_.counter_mutation &&
      event_info(config_.counter_mutation->event).scope != EventScope::kUncore) {
    apply_mutation(total, *config_.counter_mutation);
  }
  return total;
}

void Machine::flush_task_accounting() {
  for (auto& core : cores_) core.pmu.flush_current_task();
}

void Machine::reset() {
  for (auto& core : cores_) {
    core.l1.clear();
    core.l2.clear();
    core.tlb.flush();
    core.fill_buffer.clear();
    core.prefetcher.clear();
    core.branch.clear();
    core.pmu.clear();
    core.clock = 0;
    core.spec_credit = 0.0;
  }
  for (auto& node : nodes_) {
    node.l3.clear();
    node.uncore.clear();
    node.energy_pj = 0.0;
  }
  directory_.clear();
  memory_.clear();
  rng_.reseed(config_.seed);
}

}  // namespace npat::sim
