#include "os/affinity.hpp"

#include "util/check.hpp"

namespace npat::os {

sim::CoreId core_for_thread(const sim::Topology& topology, AffinityPolicy policy, u32 index) {
  const u32 total = topology.total_cores();
  const u32 slot = index % total;
  switch (policy) {
    case AffinityPolicy::kCompact:
      return slot;
    case AffinityPolicy::kScatter: {
      const u32 node = slot % topology.nodes;
      const u32 within = slot / topology.nodes;
      return node * topology.cores_per_node + within;
    }
  }
  return 0;
}

const char* affinity_name(AffinityPolicy policy) {
  return policy == AffinityPolicy::kCompact ? "compact" : "scatter";
}

}  // namespace npat::os
