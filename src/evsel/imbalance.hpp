// NUMA imbalance detection — the capability the paper attributes to perf's
// system-wide mode (§II-F: "perf enables detecting imbalanced workloads
// among NUMA nodes"). Per-node uncore indicators are collected and an
// imbalance factor (max/mean) is derived per indicator; a factor of 1
// means perfectly balanced, N means one node carries everything.
#pragma once

#include <string>
#include <vector>

#include "sim/machine.hpp"

namespace npat::evsel {

struct NodeLoad {
  sim::NodeId node = 0;
  u64 dram_reads = 0;
  u64 dram_writes = 0;
  u64 llc_misses = 0;
  u64 qpi_tx_flits = 0;
  u64 snoops_received = 0;
  u64 energy_uj = 0;
};

struct ImbalanceReport {
  std::vector<NodeLoad> nodes;

  /// max/mean of a per-node metric; 1.0 = balanced. Returns 1.0 when the
  /// metric is zero everywhere.
  double imbalance(u64 NodeLoad::* metric) const;
  /// True if any traffic metric exceeds the threshold factor.
  bool imbalanced(double factor = 1.5) const;

  std::string render() const;
};

/// Snapshot of the machine's current per-node uncore state.
ImbalanceReport node_imbalance(const sim::Machine& machine);

}  // namespace npat::evsel
