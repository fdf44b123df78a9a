// DRAM and interconnect latency/bandwidth model. Local accesses pay the
// node's DRAM latency; remote accesses additionally pay per-hop interconnect
// latency. A sliding-window utilization model adds queueing delay under
// bandwidth contention — the "use latency" jitter real PEBS reports.
#pragma once

#include <vector>

#include "sim/topology.hpp"
#include "util/random.hpp"
#include "util/types.hpp"

namespace npat::sim {

struct MemoryConfig {
  Cycles local_dram_latency = 190;
  Cycles per_hop_latency = 120;
  /// Relative std-dev of multiplicative latency jitter.
  double jitter_fraction = 0.06;
  /// Window used for utilization accounting.
  Cycles bandwidth_window = 16384;
  /// Cycles of DRAM service capacity consumed per access; a node saturates
  /// at window/service accesses per window.
  Cycles service_cycles = 8;
  /// Utilization below which no queueing delay accrues (modern controllers
  /// pipeline moderate request streams without visible queueing).
  double queueing_onset = 0.5;
  /// Queueing delay cap as a multiple of the base latency.
  double max_queueing_factor = 3.0;
};

class MemorySystem {
 public:
  MemorySystem(const Topology& topology, const MemoryConfig& config, u64 seed);

  struct AccessResult {
    Cycles latency = 0;
    u32 hops = 0;
    double utilization = 0.0;  // of the target node's memory controller
  };

  /// Latency of a DRAM access issued at `now` from `from_node` to memory
  /// on `target_node`. Updates the target's bandwidth window.
  AccessResult access(NodeId from_node, NodeId target_node, Cycles now);

  const MemoryConfig& config() const noexcept { return config_; }

  void clear();

 private:
  struct NodeState {
    Cycles window_start = 0;
    u64 accesses_in_window = 0;
    double utilization = 0.0;  // of the *previous* window
  };

  const Topology* topology_;
  MemoryConfig config_;
  std::vector<NodeState> nodes_;
  util::Xoshiro256ss rng_;
};

}  // namespace npat::sim
