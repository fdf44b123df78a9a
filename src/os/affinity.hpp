// Thread-to-core placement policies (sched_setaffinity analogue). Compact
// fills one socket before spilling to the next; scatter round-robins
// across sockets — the two placements whose cost difference NUMA models
// must capture.
#pragma once

#include <string>
#include <vector>

#include "sim/topology.hpp"
#include "util/types.hpp"

namespace npat::os {

enum class AffinityPolicy : u8 {
  kCompact,  // thread i -> core i (fills node 0 first)
  kScatter,  // spread threads round-robin over nodes
};

/// Core for logical thread `index` under `policy`. Threads beyond the core
/// count wrap around (oversubscription shares cores).
sim::CoreId core_for_thread(const sim::Topology& topology, AffinityPolicy policy, u32 index);

const char* affinity_name(AffinityPolicy policy);

}  // namespace npat::os
