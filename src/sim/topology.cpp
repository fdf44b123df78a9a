#include "sim/topology.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/strings.hpp"

namespace npat::sim {

u32 Topology::hops(NodeId from, NodeId to) const {
  NPAT_CHECK_MSG(from < nodes && to < nodes, "node id out of range");
  return distance_hops[from][to];
}

u32 Topology::max_hops() const {
  u32 worst = 0;
  for (const auto& row : distance_hops) {
    for (u32 h : row) worst = std::max(worst, h);
  }
  return worst;
}

void Topology::validate() const {
  NPAT_CHECK_MSG(nodes >= 1, "topology needs at least one node");
  NPAT_CHECK_MSG(cores_per_node >= 1, "topology needs at least one core per node");
  NPAT_CHECK_MSG(frequency_ghz > 0.0, "frequency must be positive");
  NPAT_CHECK_MSG(distance_hops.size() == nodes, "distance matrix row count mismatch");
  for (u32 a = 0; a < nodes; ++a) {
    NPAT_CHECK_MSG(distance_hops[a].size() == nodes, "distance matrix must be square");
    NPAT_CHECK_MSG(distance_hops[a][a] == 0, "distance diagonal must be zero");
    for (u32 b = 0; b < nodes; ++b) {
      NPAT_CHECK_MSG(distance_hops[a][b] == distance_hops[b][a],
                     "distance matrix must be symmetric");
      NPAT_CHECK_MSG(a == b || distance_hops[a][b] >= 1,
                     "distinct nodes must be at least one hop apart");
    }
  }
}

std::string Topology::describe() const {
  std::string out = util::format(
      "%s: %u node(s) x %u core(s) @ %.1f GHz, %s RAM per node @ %u MHz\n",
      model_name.c_str(), nodes, cores_per_node, frequency_ghz,
      util::human_bytes(memory_per_node_bytes).c_str(), memory_frequency_mhz);
  out += "  hop matrix:\n";
  for (u32 a = 0; a < nodes; ++a) {
    out += "   ";
    for (u32 b = 0; b < nodes; ++b) out += util::format(" %u", distance_hops[a][b]);
    out += "\n";
  }
  return out;
}

Topology make_fully_connected(u32 nodes, u32 cores_per_node) {
  Topology t;
  t.model_name = util::format("fully-connected-%u", nodes);
  t.nodes = nodes;
  t.cores_per_node = cores_per_node;
  t.distance_hops.assign(nodes, std::vector<u32>(nodes, 1));
  for (u32 a = 0; a < nodes; ++a) t.distance_hops[a][a] = 0;
  t.validate();
  return t;
}

Topology make_twisted_cube(u32 cores_per_node) {
  constexpr u32 kNodes = 8;
  Topology t;
  t.model_name = "twisted-cube-8";
  t.nodes = kNodes;
  t.cores_per_node = cores_per_node;
  t.distance_hops.assign(kNodes, std::vector<u32>(kNodes, 0));
  // Two fully meshed quads {0..3} and {4..7}; node i links to i+4. Crossing
  // to a non-partner node of the other quad costs two hops.
  for (u32 a = 0; a < kNodes; ++a) {
    for (u32 b = 0; b < kNodes; ++b) {
      if (a == b) continue;
      const bool same_quad = (a / 4) == (b / 4);
      const bool partners = (a % 4) == (b % 4);
      t.distance_hops[a][b] = same_quad ? 1 : (partners ? 1 : 2);
    }
  }
  t.validate();
  return t;
}

}  // namespace npat::sim
