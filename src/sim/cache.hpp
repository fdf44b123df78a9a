// Set-associative cache model with true-LRU replacement and write-back
// semantics. Used for private L1D/L2 per core and a shared L3 per socket.
//
// Each set has a 16-byte header and a block of bare tags. The header holds
// the set's epoch, a valid and a dirty bit per way, and the recency order
// as one 64-bit word of 4-bit way indices, most recent first. A lookup
// probes the most recent way, then compares every tag once; choosing a
// victim is O(1): the first invalid way in way order, else the way in the
// least recent slot. Headers are packed apart from the tags, so the headers
// of even a 45 MiB L3 stay in the host's caches, and the tags of an 8- or
// 16-way set fill one or two aligned host cache lines.
//
// Validity is epoch-tagged: a set's contents count only while its epoch
// equals the cache's, which starts at 1. Zero-filled storage is therefore
// all-invalid, and clear() only advances the epoch, so a reset costs O(1)
// however large the cache. Headers and tags live in an anonymous mapping,
// which reads as zeros and is paged in on first write, so sets a run never
// touches cost neither time nor resident memory.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>

#include "util/types.hpp"

namespace npat::sim {

struct CacheConfig {
  std::string name = "cache";
  u64 size_bytes = 32 * 1024;
  u32 ways = 8;  // at most 16
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

  struct Set {
    u64 order;  // way indices, 4 bits each; slot 0 is the most recent
    u32 epoch;  // contents count iff equal to Cache::epoch_; 0 never does
    u16 valid;  // one bit per way
    u16 dirty;
  };
  static_assert(sizeof(Set) == 16);

  /// Owns the mapping. A heap block (calloc) would not do: once a large
  /// block is freed, glibc serves the next one from its heap and zeroes it
  /// with memset, which pages the whole cache in.
  struct Unmap {
    usize bytes;
    void operator()(std::byte* mapping) const noexcept;
  };

  __extension__ typedef unsigned __int128 u128;

  struct Where {
    usize set;
    u64 tag;
  };
  Where locate(u64 line_addr) const noexcept {
    u64 tag = line_addr >> set_shift_;
    if (set_magic_ != 0) {
      // Division by the invariant set count: Granlund and Montgomery,
      // "Division by Invariant Integers using Multiplication", Fig. 4.1.
      const u64 t = static_cast<u64>((static_cast<u128>(line_addr) * set_magic_) >> 64);
      tag = (t + ((line_addr - t) >> 1)) >> set_shift_;
    }
    return {static_cast<usize>(line_addr - tag * sets_), tag};
  }
  u64* tags_of(usize set) const noexcept { return tags_ + set * config_.ways; }

  /// The set, emptied first if its contents belong to an older epoch.
  Set& live_set(usize set);
  /// Way of set `index` holding `tag`, or -1.
  int find(const Set& set, usize index, u64 tag) const;
  CacheOutcome insert(Set& set, usize index, u64 tag, bool dirty);

  CacheConfig config_;
  u64 sets_;
  // A power-of-two set count divides by a shift of log2(sets_) bits
  // (set_magic_ = 0); any other by the multiplier set_magic_ and a shift
  // of ceil(log2(sets_)) - 1 bits.
  u64 set_magic_;
  u32 set_shift_;
  std::unique_ptr<std::byte[], Unmap> mapping_;
  Set* headers_;  // sets_ of them, at the start of the mapping
  u64* tags_;     // sets_ * ways, row-major by set, 64-byte aligned
  u32 epoch_ = 1;
};

}  // namespace npat::sim
