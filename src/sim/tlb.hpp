// Two-level data TLB. A DTLB miss consults the STLB; an STLB miss triggers
// a hardware page walk, which costs cycles and locks the L1D (the paper's
// Fig. 9 attributes l1d.locks to "TLB page walks by the uncore").
#pragma once

#include "sim/cache.hpp"
#include "util/types.hpp"

namespace npat::sim {

struct TlbConfig {
  u32 dtlb_entries = 64;
  u32 dtlb_ways = 4;  // at most 16, like every Cache
  u32 stlb_entries = 1536;
  u32 stlb_ways = 12;  // at most 16
  Cycles walk_latency = 28;  // nominal page-walk duration
};

enum class TlbOutcome : u8 { kDtlbHit, kStlbHit, kPageWalk };

class Tlb {
 public:
  explicit Tlb(const TlbConfig& config);

  const TlbConfig& config() const noexcept { return config_; }

  /// Translates (looks up) the page; fills both levels on a walk.
  TlbOutcome access(u64 page);

  /// Removes a page translation everywhere (used on remap/free).
  void invalidate(u64 page);
  void flush();

 private:
  // Each level is a set-associative LRU array of pages: a Cache of
  // one-byte "lines", whose line address is the page key.
  TlbConfig config_;
  Cache dtlb_;
  Cache stlb_;
};

}  // namespace npat::sim
