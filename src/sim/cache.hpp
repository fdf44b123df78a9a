// Set-associative cache model with true-LRU replacement and write-back
// semantics. Used for private L1D/L2 per core and a shared L3 per socket.
//
// Validity is epoch-tagged: a line is valid iff its epoch equals the
// cache's current epoch, which starts at 1. Zero-filled storage is
// therefore all-invalid, and clear() only advances the epoch, so a reset
// costs O(1) however large the cache. The lines live in an anonymous
// mapping, which reads as zeros and is paged in on first write, so sets
// a run never touches cost neither time nor resident memory.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "util/types.hpp"

namespace npat::sim {

struct CacheConfig {
  std::string name = "cache";
  u64 size_bytes = 32 * 1024;
  u32 ways = 8;
  u32 line_bytes = 64;
  Cycles hit_latency = 4;

  u64 sets() const noexcept { return size_bytes / (static_cast<u64>(ways) * line_bytes); }
  u64 lines() const noexcept { return size_bytes / line_bytes; }
};

/// Result of a cache access.
struct CacheOutcome {
  bool hit = false;
  /// Line evicted to make room (only on misses into a full set).
  std::optional<u64> evicted_line;
  bool evicted_dirty = false;
};

class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  const CacheConfig& config() const noexcept { return config_; }

  /// Looks up and (on miss) fills `line_addr`, updating LRU and dirty bits.
  CacheOutcome access(u64 line_addr, bool is_write);

  /// Lookup without fill or LRU update (used by coherence probes).
  bool contains(u64 line_addr) const;

  /// Removes a line (coherence invalidation); returns whether it was dirty.
  /// No-op returning false when the line is absent.
  bool invalidate(u64 line_addr);

  /// Fills a line without a demand access (prefetch). Returns the eviction
  /// like access(); does nothing if already present.
  CacheOutcome fill(u64 line_addr);

  /// Number of currently valid lines (for tests / occupancy metrics).
  u64 valid_lines() const;

  /// Invalidates every line in O(1) by advancing the epoch.
  void clear();

 private:
  friend struct CacheTestPeer;

  struct Line {
    u64 tag;
    u64 stamp;  // global LRU stamp; smaller = older
    u32 epoch;  // valid iff equal to Cache::epoch_; 0 is never current
    bool dirty;
  };
  static_assert(sizeof(Line) == 24);

  /// Owns the mapping. A heap block (calloc) would not do: once a large
  /// block is freed, glibc serves the next one from its heap and zeroes it
  /// with memset, which pages the whole cache in.
  struct UnmapLines {
    usize bytes;
    void operator()(Line* lines) const noexcept;
  };

  usize set_index(u64 line_addr) const noexcept {
    return static_cast<usize>(line_addr % sets_);
  }
  u64 tag_of(u64 line_addr) const noexcept { return line_addr / sets_; }

  Line* find(u64 line_addr);
  const Line* find(u64 line_addr) const;
  Line& victim(usize set);

  CacheConfig config_;
  u64 sets_;
  std::unique_ptr<Line[], UnmapLines> lines_;  // sets_ * ways, row-major by set
  u64 clock_ = 0;
  u32 epoch_ = 1;
};

}  // namespace npat::sim
