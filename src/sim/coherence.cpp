#include "sim/coherence.hpp"

#include <bit>

#include "util/check.hpp"

namespace npat::sim {

CoherenceDirectory::CoherenceDirectory(u32 nodes, const CoherenceCosts& costs)
    : nodes_(nodes), costs_(costs) {
  NPAT_CHECK_MSG(nodes >= 1 && nodes <= 16, "directory supports 1..16 nodes");
}

CoherenceOutcome CoherenceDirectory::on_read(u64 line, CoreId core, NodeId node) {
  CoherenceOutcome outcome;
  auto [it, inserted] = lines_.try_emplace(line);
  Entry& entry = it->second;
  const u16 node_bit = static_cast<u16>(1u << node);

  if (!inserted && entry.dirty && entry.owner_node != node) {
    // Remote cache holds the line modified: snoop + HITM forward, then the
    // line is downgraded to shared (owner writes back).
    outcome.remote_hitm = true;
    outcome.remote_snoops = 1;
    outcome.extra_latency = costs_.hitm_forward;
    entry.dirty = false;
  }
  entry.sharer_nodes |= node_bit;
  if (entry.owner_core_plus1 == 0) {
    entry.owner_core_plus1 = core + 1;
    entry.owner_node = static_cast<u8>(node);
  }
  return outcome;
}

CoherenceOutcome CoherenceDirectory::on_write(u64 line, CoreId core, NodeId node) {
  CoherenceOutcome outcome;
  auto [it, inserted] = lines_.try_emplace(line);
  Entry& entry = it->second;
  const u16 node_bit = static_cast<u16>(1u << node);

  if (!inserted) {
    if (entry.dirty && entry.owner_node != node) {
      outcome.remote_hitm = true;
      outcome.extra_latency += costs_.hitm_forward;
      outcome.remote_snoops += 1;
    }
    const u16 remote_sharers = static_cast<u16>(entry.sharer_nodes & ~node_bit);
    if (remote_sharers != 0) {
      const u32 count = static_cast<u32>(std::popcount(remote_sharers));
      outcome.invalidations_sent = count;
      outcome.remote_snoops += count;
      outcome.extra_latency += costs_.invalidation * count;
    }
  }
  entry.owner_core_plus1 = core + 1;
  entry.owner_node = static_cast<u8>(node);
  entry.sharer_nodes = node_bit;
  entry.dirty = true;
  return outcome;
}

}  // namespace npat::sim
