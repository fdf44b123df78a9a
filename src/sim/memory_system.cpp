#include "sim/memory_system.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace npat::sim {

MemorySystem::MemorySystem(const Topology& topology, const MemoryConfig& config, u64 seed)
    : topology_(&topology), config_(config), nodes_(topology.nodes), rng_(seed) {
  NPAT_CHECK_MSG(config.bandwidth_window > 0 && config.service_cycles > 0,
                 "invalid bandwidth model parameters");
}

MemorySystem::AccessResult MemorySystem::access(NodeId from_node, NodeId target_node,
                                                Cycles now) {
  NodeState& state = nodes_[target_node];

  // Roll the utilization window forward. If the access arrives beyond the
  // current window, the previous window's utilization is recomputed.
  if (now >= state.window_start + config_.bandwidth_window) {
    state.utilization = static_cast<double>(state.accesses_in_window * config_.service_cycles) /
                        static_cast<double>(config_.bandwidth_window);
    // Decay across idle windows so stale pressure does not linger.
    const u64 windows_elapsed = (now - state.window_start) / config_.bandwidth_window;
    if (windows_elapsed > 1) {
      state.utilization /= static_cast<double>(windows_elapsed);
    }
    state.window_start = now - (now - state.window_start) % config_.bandwidth_window;
    state.accesses_in_window = 0;
  }
  state.accesses_in_window += 1;

  AccessResult result;
  result.hops = topology_->hops(from_node, target_node);
  result.utilization = state.utilization;

  const double base = static_cast<double>(config_.local_dram_latency) +
                      static_cast<double>(config_.per_hop_latency) * result.hops;

  // M/D/1-flavoured queueing above the onset utilization, capped.
  const double rho = std::min(state.utilization, 0.95);
  const double excess = std::max(0.0, rho - config_.queueing_onset);
  const double queueing =
      std::min(base * excess / (1.0 - rho), base * config_.max_queueing_factor);

  const double jitter = rng_.normal(0.0, config_.jitter_fraction * base);
  const double total = std::max(base * 0.6, base + queueing + jitter);
  result.latency = static_cast<Cycles>(std::llround(total));
  return result;
}

void MemorySystem::clear() {
  for (auto& n : nodes_) n = NodeState{};
}

}  // namespace npat::sim
