#include "sim/fill_buffer.hpp"

#include <limits>

#include "util/check.hpp"

namespace npat::sim {

FillBuffer::FillBuffer(const FillBufferConfig& config)
    : config_(config), release_times_(config.entries) {
  NPAT_CHECK_MSG(config.entries > 0, "fill buffer needs at least one entry");
}

Cycles FillBuffer::expire(Cycles now) {
  Cycles earliest = std::numeric_limits<Cycles>::max();
  for (u32 i = 0; i < used_;) {
    if (release_times_[i] <= now) {
      release_times_[i] = release_times_[--used_];
    } else {
      earliest = std::min(earliest, release_times_[i]);
      ++i;
    }
  }
  return earliest;
}

FillBuffer::Result FillBuffer::allocate(Cycles now, Cycles fill_latency) {
  Result result;
  const Cycles earliest = expire(now);
  Cycles start = now;
  if (used_ == config_.entries) {
    // All entries busy: the demand registration is rejected and retried
    // every few cycles until the earliest outstanding fill completes —
    // each failed retry counts (Fig. 8 reports per-attempt rejections).
    result.stall = earliest - now;
    constexpr Cycles kRetryInterval = 4;
    result.rejects = 1 + static_cast<u32>(result.stall / kRetryInterval);
    start = earliest;
    expire(start);
  }
  release_times_[used_++] = start + fill_latency;
  return result;
}

void FillBuffer::clear() { used_ = 0; }

}  // namespace npat::sim
