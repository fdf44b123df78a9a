// Line-fill buffer (MSHR) occupancy model. Each L1D miss allocates an
// entry that stays busy until its fill completes; when every entry is busy
// a demand request is *rejected* and must retry — the paper's Fig. 8 shows
// this counter exploding from 26 to ~3 million in the cache-miss variant.
#pragma once

#include <algorithm>
#include <array>
#include <vector>

#include "util/types.hpp"

namespace npat::sim {

struct FillBufferConfig {
  u32 entries = 10;  // Intel L1D line-fill buffers
};

class FillBuffer {
 public:
  explicit FillBuffer(const FillBufferConfig& config);

  struct Result {
    u32 rejects = 0;       // times the request found all entries busy
    Cycles stall = 0;      // cycles waited for a slot to free
  };

  /// Allocates an entry for a miss issued at `now` completing at
  /// `now + fill_latency`. If the buffer is full, the request stalls until
  /// the earliest completion and the rejection is counted.
  Result allocate(Cycles now, Cycles fill_latency);

  void clear();

 private:
  /// Drops the entries released by `now`; returns the earliest release
  /// time left (the maximum Cycles value when none is).
  Cycles expire(Cycles now);

  FillBufferConfig config_;
  std::vector<Cycles> release_times_;  // entries slots; [0, used_) are busy
  u32 used_ = 0;
};

}  // namespace npat::sim
