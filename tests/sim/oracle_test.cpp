// Differential oracles: each stateful part of the cache hierarchy is driven
// side by side with a slow reference written for obviousness, over seeded
// random streams of its whole public API, and every result is compared
// step by step. A mismatch names the seed and the step that diverged.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <list>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "sim/cache.hpp"
#include "sim/presets.hpp"
#include "sim/prefetcher.hpp"
#include "sim/tlb.hpp"
#include "util/random.hpp"

namespace npat::sim {
namespace {

std::string where(u64 seed, u64 step) {
  std::ostringstream out;
  out << "seed " << seed << ", step " << step;
  return out.str();
}

// --- Cache -------------------------------------------------------------------

/// Per-line valid and dirty bits in way order, plus a recency list of the
/// valid ways per set (most recent first). Sets are created on first use.
class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheConfig& config)
      : sets_(config.sets()), ways_(config.ways) {}

  CacheOutcome access(u64 line, bool is_write) {
    RefSet& set = set_of(line);
    if (const int way = find(set, line); way >= 0) {
      touch(set, static_cast<u32>(way));
      set.slots[static_cast<usize>(way)].dirty |= is_write;
      return CacheOutcome{true, std::nullopt, false};
    }
    return insert(set, line, is_write);
  }

  CacheOutcome fill(u64 line) {
    RefSet& set = set_of(line);
    if (find(set, line) >= 0) return CacheOutcome{true, std::nullopt, false};
    return insert(set, line, false);
  }

  bool invalidate(u64 line) {
    RefSet& set = set_of(line);
    const int way = find(set, line);
    if (way < 0) return false;
    Slot& slot = set.slots[static_cast<usize>(way)];
    slot.valid = false;
    set.recency.remove(static_cast<u32>(way));
    return slot.dirty;
  }

  bool contains(u64 line) const {
    const auto it = sets_by_index_.find(line % sets_);
    if (it == sets_by_index_.end()) return false;
    for (const Slot& slot : it->second.slots) {
      if (slot.valid && slot.line == line) return true;
    }
    return false;
  }

  u64 valid_lines() const {
    u64 count = 0;
    for (const auto& [index, set] : sets_by_index_) {
      for (const Slot& slot : set.slots) count += slot.valid ? 1 : 0;
    }
    return count;
  }

  void clear() { sets_by_index_.clear(); }

 private:
  struct Slot {
    u64 line = 0;
    bool valid = false;
    bool dirty = false;
  };
  struct RefSet {
    std::vector<Slot> slots;
    std::list<u32> recency;
  };

  RefSet& set_of(u64 line) {
    RefSet& set = sets_by_index_[line % sets_];
    if (set.slots.empty()) set.slots.resize(ways_);
    return set;
  }

  static int find(const RefSet& set, u64 line) {
    for (usize w = 0; w < set.slots.size(); ++w) {
      if (set.slots[w].valid && set.slots[w].line == line) return static_cast<int>(w);
    }
    return -1;
  }

  static void touch(RefSet& set, u32 way) {
    set.recency.remove(way);
    set.recency.push_front(way);
  }

  CacheOutcome insert(RefSet& set, u64 line, bool dirty) {
    CacheOutcome outcome;
    u32 way = 0;
    while (way < ways_ && set.slots[way].valid) ++way;
    if (way == ways_) {
      way = set.recency.back();
      outcome.evicted_line = set.slots[way].line;
      outcome.evicted_dirty = set.slots[way].dirty;
    }
    set.slots[way] = Slot{line, true, dirty};
    touch(set, way);
    return outcome;
  }

  u64 sets_;
  u32 ways_;
  std::map<u64, RefSet> sets_by_index_;
};

/// Lines in a handful of sets, the first and last among them, with about
/// twice as many distinct tags as ways, so sets fill, evict and refill.
class LineSource {
 public:
  LineSource(const CacheConfig& config, util::Xoshiro256ss& rng) : sets_(config.sets()) {
    hot_sets_ = {0, sets_ - 1};
    for (int i = 0; i < 4; ++i) hot_sets_.push_back(rng.below(sets_));
    tags_ = 2 * config.ways + 1;
  }

  u64 next(util::Xoshiro256ss& rng) const {
    if (rng.below(16) == 0) return rng.below(sets_ * tags_);  // anywhere
    return rng.below(tags_) * sets_ + hot_sets_[rng.below(hot_sets_.size())];
  }

 private:
  u64 sets_;
  u64 tags_;
  std::vector<u64> hot_sets_;
};

void check_cache_against_reference(const CacheConfig& config, u64 seed, u32 steps) {
  SCOPED_TRACE(config.name);
  const auto fields = [](const CacheOutcome& o) {
    return std::tuple(o.hit, o.evicted_line, o.evicted_dirty);
  };
  Cache cache(config);
  ReferenceCache reference(config);
  util::Xoshiro256ss rng(seed);
  const LineSource lines(config, rng);
  for (u32 step = 0; step < steps; ++step) {
    const u64 line = lines.next(rng);
    const u64 op = rng.below(64);
    if (op == 0) {
      cache.clear();
      reference.clear();
    } else if (op < 8) {
      ASSERT_EQ(cache.invalidate(line), reference.invalidate(line)) << where(seed, step);
    } else if (op < 20) {
      ASSERT_EQ(fields(cache.fill(line)), fields(reference.fill(line))) << where(seed, step);
    } else {
      const bool is_write = rng.below(3) == 0;
      ASSERT_EQ(fields(cache.access(line, is_write)), fields(reference.access(line, is_write)))
          << where(seed, step);
    }
    const u64 probe = lines.next(rng);
    ASSERT_EQ(cache.contains(probe), reference.contains(probe)) << where(seed, step);
    if (step % 512 == 0 || step + 1 == steps) {
      ASSERT_EQ(cache.valid_lines(), reference.valid_lines()) << where(seed, step);
    }
  }
}

std::vector<CacheConfig> oracle_cache_geometries() {
  std::vector<CacheConfig> geometries;
  for (const char* preset : {"dl580", "dual", "uma", "cube8"}) {
    const MachineConfig machine = preset_by_name(preset);
    for (CacheConfig level : {machine.l1, machine.l2, machine.l3}) {
      level.name = std::string(preset) + " " + level.name;
      geometries.push_back(level);
    }
  }
  geometries.push_back(CacheConfig{"5 sets x 3 ways", 5 * 3 * 64, 3, 64, 4});
  geometries.push_back(CacheConfig{"7 sets x 1 way", 7 * 64, 1, 64, 4});
  geometries.push_back(CacheConfig{"fully associative 16 ways", 16 * 64, 16, 64, 4});
  geometries.push_back(CacheConfig{"fully associative 5 ways", 5 * 64, 5, 64, 4});
  geometries.push_back(CacheConfig{"6 sets x 16 ways", 6 * 16 * 64, 16, 64, 4});
  return geometries;
}

TEST(CacheOracle, MatchesReferenceOnEveryGeometry) {
  u64 seed = 100;
  for (const CacheConfig& config : oracle_cache_geometries()) {
    for (int round = 0; round < 2; ++round) {
      check_cache_against_reference(config, seed++, 6000);
      if (HasFatalFailure()) return;
    }
  }
}

// --- Prefetcher --------------------------------------------------------------

/// Streams in slots with a recency list of the slots in use (most recent
/// first). The nearest stream within the window continues; the first of
/// two equally near ones wins. A new stream takes the first free slot,
/// else the least recently used one.
class ReferencePrefetcher {
 public:
  explicit ReferencePrefetcher(const PrefetcherConfig& config)
      : config_(config), slots_(config.streams) {}

  std::vector<PrefetchRequest> observe(u64 line) {
    std::vector<PrefetchRequest> out;
    int nearest = -1;
    i64 nearest_distance = 0;
    for (usize i = 0; i < slots_.size(); ++i) {
      if (!slots_[i].used) continue;
      const i64 distance = std::llabs(static_cast<i64>(line) - static_cast<i64>(slots_[i].last));
      if (distance > config_.match_distance_lines) continue;
      if (nearest < 0 || distance < nearest_distance) {
        nearest = static_cast<int>(i);
        nearest_distance = distance;
      }
    }
    if (nearest < 0) {
      usize slot = 0;
      while (slot < slots_.size() && slots_[slot].used) ++slot;
      if (slot == slots_.size()) slot = recency_.back();
      slots_[slot] = Slot{true, line, 0, 0};
      touch(slot);
      return out;
    }
    const usize index = static_cast<usize>(nearest);
    Slot& stream = slots_[index];
    touch(index);
    const i64 stride = static_cast<i64>(line) - static_cast<i64>(stream.last);
    if (stride == 0) return out;
    if (stride == stream.stride) {
      stream.confidence = std::min(stream.confidence + 1, 255u);
    } else {
      stream.stride = stride;
      stream.confidence = 1;
    }
    stream.last = line;
    if (stream.confidence < config_.confirmations) return out;
    const PrefetchTarget target = std::llabs(stride) <= config_.max_l2_stride_lines
                                      ? PrefetchTarget::kL2
                                      : PrefetchTarget::kL3;
    for (u32 d = 1; d <= config_.degree; ++d) {
      const i64 next = static_cast<i64>(line) + stride * static_cast<i64>(d);
      if (next < 0) break;
      out.push_back(PrefetchRequest{static_cast<u64>(next), target});
    }
    return out;
  }

  void clear() {
    slots_.assign(slots_.size(), Slot{});
    recency_.clear();
  }

 private:
  struct Slot {
    bool used = false;
    u64 last = 0;
    i64 stride = 0;
    u32 confidence = 0;
  };

  void touch(usize slot) {
    recency_.remove(slot);
    recency_.push_front(slot);
  }

  PrefetcherConfig config_;
  std::vector<Slot> slots_;
  std::list<usize> recency_;
};

void check_prefetcher_against_reference(const PrefetcherConfig& config, u64 seed, u32 steps) {
  const auto fields = [](const std::vector<PrefetchRequest>& requests) {
    std::vector<std::pair<u64, PrefetchTarget>> out;
    for (const auto& r : requests) out.emplace_back(r.line, r.target);
    return out;
  };
  Prefetcher prefetcher(config);
  ReferencePrefetcher reference(config);
  util::Xoshiro256ss rng(seed);
  // Walkers on a coarse grid with small strides: they meet, tie in
  // distance, run out of slots and wander past the window.
  std::vector<i64> walkers(6);
  for (auto& w : walkers) w = static_cast<i64>(rng.below(64)) * 16;
  const i64 strides[] = {1, 1, 2, -1, 8, 64, 300, -64, 0};
  std::vector<PrefetchRequest> out;
  for (u32 step = 0; step < steps; ++step) {
    if (rng.below(200) == 0) {
      prefetcher.clear();
      reference.clear();
      continue;
    }
    i64& walker = walkers[rng.below(walkers.size())];
    if (rng.below(50) == 0) {
      walker = static_cast<i64>(rng.below(1 << 14));
    } else {
      walker = std::max<i64>(0, walker + strides[rng.below(std::size(strides))]);
    }
    prefetcher.observe(static_cast<u64>(walker), out);
    ASSERT_EQ(fields(out), fields(reference.observe(static_cast<u64>(walker))))
        << where(seed, step);
  }
}

TEST(PrefetcherOracle, MatchesReference) {
  std::vector<PrefetcherConfig> configs(5);
  configs[1].streams = 1;
  configs[2].streams = 3;
  configs[2].confirmations = 1;
  configs[2].degree = 4;
  configs[3].streams = 4;
  configs[3].match_distance_lines = 8;
  configs[4].degree = 0;
  u64 seed = 300;
  for (const auto& config : configs) {
    for (int round = 0; round < 3; ++round) {
      check_prefetcher_against_reference(config, seed++, 4000);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(PrefetcherOracle, FirstOfTwoEquallyNearStreamsWins) {
  PrefetcherConfig config;
  config.confirmations = 1;
  Prefetcher prefetcher(config);
  std::vector<PrefetchRequest> out;
  prefetcher.observe(100, out);  // stream in slot 0
  prefetcher.observe(110, out);  // continues slot 0: stride 10, last 110
  prefetcher.observe(130, out);  // continues slot 0: stride 20, last 130
  prefetcher.observe(400, out);  // new stream in slot 1
  prefetcher.observe(420, out);  // slot 1: stride 20, last 420
  // 275 is 145 lines from both; slot 0 continues with stride 145.
  prefetcher.observe(275, out);
  ASSERT_EQ(out.size(), config.degree);
  EXPECT_EQ(out[0].line, 275u + 145u);
  // Slot 1 was left alone: its stride is still 20.
  prefetcher.observe(440, out);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0].line, 460u);
}

// --- Tlb ---------------------------------------------------------------------

/// Each level is a map from set to its pages, most recent first, holding
/// at most `ways` of them.
class ReferenceTlb {
 public:
  explicit ReferenceTlb(const TlbConfig& config)
      : dtlb_{config.dtlb_entries / config.dtlb_ways, config.dtlb_ways, {}},
        stlb_{config.stlb_entries / config.stlb_ways, config.stlb_ways, {}} {}

  TlbOutcome access(u64 page) {
    if (dtlb_.touch(page)) return TlbOutcome::kDtlbHit;
    const bool stlb_hit = stlb_.touch(page);
    if (!stlb_hit) stlb_.insert(page);
    dtlb_.insert(page);
    return stlb_hit ? TlbOutcome::kStlbHit : TlbOutcome::kPageWalk;
  }

  void invalidate(u64 page) {
    dtlb_.remove(page);
    stlb_.remove(page);
  }

  void flush() {
    dtlb_.sets.clear();
    stlb_.sets.clear();
  }

 private:
  struct Level {
    u32 set_count;
    u32 ways;
    std::map<u64, std::list<u64>> sets;

    std::list<u64>& set_of(u64 page) { return sets[page % set_count]; }
    bool touch(u64 page) {
      auto& set = set_of(page);
      const auto it = std::find(set.begin(), set.end(), page);
      if (it == set.end()) return false;
      set.erase(it);
      set.push_front(page);
      return true;
    }
    void insert(u64 page) {
      auto& set = set_of(page);
      if (set.size() == ways) set.pop_back();
      set.push_front(page);
    }
    void remove(u64 page) { set_of(page).remove(page); }
  };

  Level dtlb_;
  Level stlb_;
};

void check_tlb_against_reference(const TlbConfig& config, u64 seed, u32 steps) {
  Tlb tlb(config);
  ReferenceTlb reference(config);
  util::Xoshiro256ss rng(seed);
  // A working set a little larger than the STLB, with a hot core that
  // mostly lives in the DTLB and runs of one page.
  const u64 span = config.stlb_entries + config.stlb_entries / 4;
  const u64 hot = std::max<u64>(1, config.dtlb_entries / 2);
  u64 last = 0;
  for (u32 step = 0; step < steps; ++step) {
    const u64 op = rng.below(100);
    if (op == 0) {
      tlb.flush();
      reference.flush();
      continue;
    }
    if (op < 6) {
      // Often the page just accessed, the most recent of its sets.
      const u64 page = rng.below(2) == 0 ? last : rng.below(span);
      tlb.invalidate(page);
      reference.invalidate(page);
      continue;
    }
    const u64 page = op < 40 ? last : op < 75 ? rng.below(hot) : rng.below(span);
    ASSERT_EQ(tlb.access(page), reference.access(page)) << where(seed, step);
    last = page;
  }
}

TEST(TlbOracle, MatchesReferenceOnBothLevels) {
  std::vector<TlbConfig> configs(3);
  configs[1] = TlbConfig{8, 2, 32, 4, 28};    // the unit tests' tiny TLB
  configs[2] = TlbConfig{12, 4, 60, 6, 28};   // 3 and 10 sets
  u64 seed = 500;
  for (const auto& config : configs) {
    for (int round = 0; round < 3; ++round) {
      check_tlb_against_reference(config, seed++, 20000);
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace npat::sim
