// MESI-lite coherence directory. Tracks, per cache line, the owning core
// and a coarse per-node sharer vector — enough to model invalidation
// traffic, remote snoops and HITM forwards, which dominate NUMA costs for
// write-shared data.
#pragma once

#include <optional>
#include <unordered_map>

#include "sim/topology.hpp"
#include "util/types.hpp"

namespace npat::sim {

struct CoherenceCosts {
  Cycles invalidation = 40;   // per remote sharer node invalidated
  Cycles hitm_forward = 90;   // dirty line forwarded from a remote cache
};

/// Effects of a coherence transaction, to be charged by the machine.
struct CoherenceOutcome {
  Cycles extra_latency = 0;
  u32 remote_snoops = 0;       // snoop messages sent to remote nodes
  bool remote_hitm = false;    // data came modified from a remote cache
  u32 invalidations_sent = 0;
};

class CoherenceDirectory {
 public:
  CoherenceDirectory(u32 nodes, const CoherenceCosts& costs);

  /// Records a read of `line` by `core` on `node`; reports whether a remote
  /// node held the line modified (HITM forward).
  CoherenceOutcome on_read(u64 line, CoreId core, NodeId node);

  /// Records a write; invalidates remote sharers.
  CoherenceOutcome on_write(u64 line, CoreId core, NodeId node);

  usize tracked_lines() const { return lines_.size(); }
  void clear() { lines_.clear(); }

 private:
  struct Entry {
    u32 owner_core_plus1 = 0;  // 0 = none
    u8 owner_node = 0;
    u16 sharer_nodes = 0;      // bitmask over nodes (<= 16 nodes)
    bool dirty = false;
  };

  u32 nodes_;
  CoherenceCosts costs_;
  std::unordered_map<u64, Entry> lines_;
};

}  // namespace npat::sim
