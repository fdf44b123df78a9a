#include "sim/prefetcher.hpp"

#include <cmath>

#include "util/check.hpp"

namespace npat::sim {

Prefetcher::Prefetcher(const PrefetcherConfig& config)
    : config_(config), miss_distance_(static_cast<u64>(config.match_distance_lines) + 1) {
  NPAT_CHECK_MSG(config.streams > 0, "prefetcher needs at least one stream");
  NPAT_CHECK_MSG(config.match_distance_lines > 0, "match distance must be positive");
  streams_.resize(config.streams);
}

void Prefetcher::observe(u64 line_addr, std::vector<PrefetchRequest>& out) {
  out.clear();
  ++clock_;

  // Match the nearest stream within the tracking window (real prefetchers
  // track a handful of concurrent streams by address proximity); the first
  // of two equally near streams wins.
  usize nearest = used_;
  u64 best_distance = miss_distance_;
  for (usize i = 0; i < used_; ++i) {
    const u64 last = streams_[i].last_line;
    const u64 distance = std::min(line_addr - last, last - line_addr);  // |line - last|
    const bool closer = distance < best_distance;
    best_distance = closer ? distance : best_distance;
    nearest = closer ? i : nearest;
  }

  if (nearest == used_) {
    // A new stream takes the first free slot, else the least recent one.
    // Slots only free up all at once (clear), so the free ones are a suffix.
    Stream* victim = &streams_[0];
    if (used_ < streams_.size()) {
      victim = &streams_[used_++];
    } else {
      for (auto& s : streams_) {
        if (s.stamp < victim->stamp) victim = &s;
      }
    }
    *victim = Stream{line_addr, 0, 0, clock_};
    return;
  }
  Stream* stream = &streams_[nearest];

  const i64 stride = static_cast<i64>(line_addr) - static_cast<i64>(stream->last_line);
  if (stride == 0) {
    stream->stamp = clock_;
    return;  // same line, nothing to learn
  }
  if (stride == stream->stride) {
    stream->confidence = std::min(stream->confidence + 1, 255u);
  } else {
    stream->stride = stride;
    stream->confidence = 1;
  }
  stream->last_line = line_addr;
  stream->stamp = clock_;

  if (stream->confidence < config_.confirmations) return;

  const PrefetchTarget target = std::llabs(stream->stride) <= config_.max_l2_stride_lines
                                    ? PrefetchTarget::kL2
                                    : PrefetchTarget::kL3;
  for (u32 d = 1; d <= config_.degree; ++d) {
    const i64 next = static_cast<i64>(line_addr) + stream->stride * static_cast<i64>(d);
    if (next < 0) break;
    out.push_back(PrefetchRequest{static_cast<u64>(next), target});
  }
}

void Prefetcher::clear() {
  used_ = 0;
  clock_ = 0;
}

}  // namespace npat::sim
