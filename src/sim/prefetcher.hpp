// Hardware stride prefetcher. Tracks per-stream strides; short strides
// prefetch the next lines into L2, while strides at or beyond a page defeat
// the L2 prefetcher and are handled by the LLC streamer instead — the
// mechanism behind the paper's Fig. 8 observation that "L2 prefetch
// requests dropped by 90 %, since prefetchers directly accessed the L3
// cache".
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "util/types.hpp"

namespace npat::sim {

struct PrefetcherConfig {
  u32 streams = 16;           // tracked access streams
  u32 degree = 2;             // lines prefetched per trigger
  i64 max_l2_stride_lines = 8;  // |stride| beyond this goes to the LLC streamer
  u32 confirmations = 2;      // identical strides required before issuing
  /// A demand access continues an existing stream if it lands within this
  /// many lines of the stream's last access (covers page-sized strides).
  i64 match_distance_lines = 256;
};

/// Targets a prefetch can fill into.
enum class PrefetchTarget : u8 { kL2, kL3 };

struct PrefetchRequest {
  u64 line = 0;
  PrefetchTarget target = PrefetchTarget::kL2;
};

class Prefetcher {
 public:
  explicit Prefetcher(const PrefetcherConfig& config);

  /// Observes a demand line access and returns prefetches to issue.
  /// `out` is cleared first; at most config.degree requests are produced.
  void observe(u64 line_addr, std::vector<PrefetchRequest>& out);

  void clear();

 private:
  struct Stream {
    u64 last_line = 0;
    i64 stride = 0;
    u32 confidence = 0;
    u64 stamp = 0;
  };

  PrefetcherConfig config_;
  std::vector<Stream> streams_;
  u64 miss_distance_;  // distances at or past this match no stream
  usize used_ = 0;  // streams_[0, used_) are tracked
  u64 clock_ = 0;
};

}  // namespace npat::sim
