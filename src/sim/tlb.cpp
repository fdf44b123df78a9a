#include "sim/tlb.hpp"

namespace npat::sim {

Tlb::Tlb(const TlbConfig& config)
    : config_(config),
      dtlb_(CacheConfig{"DTLB", config.dtlb_entries, config.dtlb_ways, 1, 0}),
      stlb_(CacheConfig{"STLB", config.stlb_entries, config.stlb_ways, 1, 0}) {}

TlbOutcome Tlb::access(u64 page) {
  // A lookup that misses also fills the level, as a walk or STLB hit does.
  if (dtlb_.access(page, false).hit) return TlbOutcome::kDtlbHit;
  return stlb_.access(page, false).hit ? TlbOutcome::kStlbHit : TlbOutcome::kPageWalk;
}

void Tlb::invalidate(u64 page) {
  dtlb_.invalidate(page);
  stlb_.invalidate(page);
}

void Tlb::flush() {
  dtlb_.clear();
  stlb_.clear();
}

}  // namespace npat::sim
