// NUMA topology description: sockets (= NUMA nodes), cores, per-node memory
// and the inter-node distance matrix in hops. Matches the role of Table I's
// "NUMA Topology: Fully interconnected" line and supports the paper's
// outlook of "simulating and incorporating different topologies".
#pragma once

#include <string>
#include <vector>

#include "util/types.hpp"

namespace npat::sim {

using NodeId = u32;
using CoreId = u32;

struct Topology {
  std::string model_name = "generic";
  std::string processor_name = "generic";
  u32 nodes = 1;
  u32 cores_per_node = 1;
  double frequency_ghz = 2.4;
  u64 memory_per_node_bytes = 0;
  u32 memory_frequency_mhz = 1600;
  /// distance_hops[a][b]: interconnect hops between nodes a and b (0 on the
  /// diagonal, 1 for directly connected nodes).
  std::vector<std::vector<u32>> distance_hops;

  u32 total_cores() const noexcept { return nodes * cores_per_node; }
  NodeId node_of_core(CoreId core) const noexcept { return core / cores_per_node; }
  /// Core ids belonging to a node: [first_core(n), first_core(n)+cores_per_node).
  CoreId first_core(NodeId node) const noexcept { return node * cores_per_node; }

  u32 hops(NodeId from, NodeId to) const;
  u32 max_hops() const;

  /// Validates shape invariants (square symmetric matrix, zero diagonal,
  /// connectivity); throws CheckError on violation.
  void validate() const;

  /// Human-readable topology description (used by bench/table1_system).
  std::string describe() const;
};

/// Builders for the interconnect shapes discussed in the paper's outlook.
/// All return validated topologies.
Topology make_fully_connected(u32 nodes, u32 cores_per_node);
/// 8-socket "twisted hypercube" style: pairs of fully meshed quads with one
/// hop between quads, two across the twist.
Topology make_twisted_cube(u32 cores_per_node);

}  // namespace npat::sim
