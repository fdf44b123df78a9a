#include "sim/cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>

#include "util/check.hpp"
#include "util/random.hpp"

namespace npat::sim {

struct CacheTestPeer {
  static void set_epoch(Cache& cache, u32 epoch) { cache.epoch_ = epoch; }
};

namespace {

CacheConfig tiny_cache() {
  // 4 sets x 2 ways x 64 B = 512 B.
  return CacheConfig{"tiny", 512, 2, 64, 4};
}

TEST(Cache, GeometryDerivation) {
  const CacheConfig config = tiny_cache();
  EXPECT_EQ(config.sets(), 4u);
  EXPECT_EQ(config.lines(), 8u);
}

TEST(Cache, InvalidGeometryThrows) {
  CacheConfig bad{"bad", 100, 3, 64, 1};
  EXPECT_THROW(Cache cache(bad), CheckError);
}

TEST(Cache, MissThenHit) {
  Cache cache(tiny_cache());
  EXPECT_FALSE(cache.access(1, false).hit);
  EXPECT_TRUE(cache.access(1, false).hit);
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
}

TEST(Cache, LruEvictionWithinSet) {
  Cache cache(tiny_cache());
  // Lines 0, 4, 8 all map to set 0 (4 sets); 2 ways.
  cache.access(0, false);
  cache.access(4, false);
  cache.access(0, false);  // refresh 0 -> 4 is LRU
  const auto outcome = cache.access(8, false);
  EXPECT_FALSE(outcome.hit);
  ASSERT_TRUE(outcome.evicted_line.has_value());
  EXPECT_EQ(*outcome.evicted_line, 4u);
  EXPECT_TRUE(cache.contains(0));
  EXPECT_FALSE(cache.contains(4));
}

TEST(Cache, DirtyEvictionReported) {
  Cache cache(tiny_cache());
  cache.access(0, true);  // dirty
  cache.access(4, false);
  const auto outcome = cache.access(8, false);  // evicts 0 (LRU)
  ASSERT_TRUE(outcome.evicted_line.has_value());
  EXPECT_EQ(*outcome.evicted_line, 0u);
  EXPECT_TRUE(outcome.evicted_dirty);
}

TEST(Cache, WriteHitMarksDirty) {
  Cache cache(tiny_cache());
  cache.access(0, false);
  cache.access(0, true);  // now dirty
  cache.access(4, false);
  const auto outcome = cache.access(8, false);
  EXPECT_TRUE(outcome.evicted_dirty);
}

TEST(Cache, InvalidateReturnsDirtyState) {
  Cache cache(tiny_cache());
  cache.access(7, true);
  EXPECT_TRUE(cache.invalidate(7));
  EXPECT_FALSE(cache.contains(7));
  EXPECT_FALSE(cache.invalidate(7));  // absent now
}

TEST(Cache, FillDoesNotMarkDirty) {
  Cache cache(tiny_cache());
  const auto outcome = cache.fill(3);
  EXPECT_FALSE(outcome.hit);
  EXPECT_TRUE(cache.contains(3));
  cache.fill(3 + 4);
  const auto eviction = cache.fill(3 + 8);
  ASSERT_TRUE(eviction.evicted_line.has_value());
  EXPECT_FALSE(eviction.evicted_dirty);
}

TEST(Cache, FillOnPresentLineIsNoop) {
  Cache cache(tiny_cache());
  cache.access(5, true);
  EXPECT_TRUE(cache.fill(5).hit);
  // Dirty bit must survive the prefetch hit.
  cache.access(5 + 4, false);
  const auto outcome = cache.access(5 + 8, false);
  // One of the two set-0 residents is evicted; if it's line 5 it is dirty.
  if (outcome.evicted_line == 5u) {
    EXPECT_TRUE(outcome.evicted_dirty);
  }
}

TEST(Cache, ValidLinesAndClear) {
  Cache cache(tiny_cache());
  cache.access(0, false);
  cache.access(1, false);
  cache.access(2, false);
  EXPECT_EQ(cache.valid_lines(), 3u);
  cache.clear();
  EXPECT_EQ(cache.valid_lines(), 0u);
  EXPECT_FALSE(cache.contains(0));
}

TEST(Cache, StreamingEvictsOldLines) {
  Cache cache(tiny_cache());  // 8 lines capacity
  for (u64 line = 0; line < 64; ++line) cache.access(line, false);
  EXPECT_EQ(cache.valid_lines(), 8u);
  EXPECT_FALSE(cache.contains(0));
  EXPECT_TRUE(cache.contains(63));
}

TEST(Cache, DistinctSetsDoNotConflict) {
  Cache cache(tiny_cache());
  // Lines 0..3 map to distinct sets; all fit regardless of associativity.
  for (u64 line = 0; line < 4; ++line) cache.access(line, false);
  for (u64 line = 0; line < 4; ++line) EXPECT_TRUE(cache.contains(line));
}

/// Drives `a` and `b` with the same seeded access/fill/invalidate stream
/// and asserts that every outcome matches.
void expect_same_behaviour(Cache& a, Cache& b, u64 seed, u32 ops) {
  const auto fields = [](const CacheOutcome& o) {
    return std::tuple(o.hit, o.evicted_line, o.evicted_dirty);
  };
  util::Xoshiro256ss rng(seed);
  // Twice the capacity in distinct lines keeps every set under pressure.
  const u64 span = 2 * a.config().lines();
  for (u32 i = 0; i < ops; ++i) {
    const u64 line = rng() % span;
    switch (rng() % 8) {
      case 0:
        ASSERT_EQ(a.invalidate(line), b.invalidate(line)) << "op " << i;
        break;
      case 1:
        ASSERT_EQ(fields(a.fill(line)), fields(b.fill(line))) << "op " << i;
        break;
      default: {
        const bool is_write = (rng() & 1) != 0;
        ASSERT_EQ(fields(a.access(line, is_write)), fields(b.access(line, is_write))) << "op " << i;
        break;
      }
    }
  }
  EXPECT_EQ(a.valid_lines(), b.valid_lines());
}

TEST(Cache, ClearedCacheBehavesLikeFreshOne) {
  // 5 sets x 3 ways: neither count is a power of two.
  const CacheConfig config{"odd", 5 * 3 * 64, 3, 64, 4};
  Cache reused(config);
  for (u64 round = 0; round < 6; ++round) {
    reused.clear();
    EXPECT_EQ(reused.valid_lines(), 0u);
    Cache fresh(config);
    expect_same_behaviour(reused, fresh, 1000 + round, 2000);
  }
}

TEST(Cache, EpochWrapInvalidatesEveryLine) {
  Cache cache(tiny_cache());
  cache.access(0, true);  // tagged with the first epoch
  cache.access(1, false);
  // Stand-in for 2^32 - 2 clears: the next clear wraps the epoch.
  CacheTestPeer::set_epoch(cache, UINT32_MAX);
  EXPECT_EQ(cache.valid_lines(), 0u);
  cache.access(2, true);
  cache.fill(3);
  EXPECT_EQ(cache.valid_lines(), 2u);
  cache.clear();
  // Lines from before the wrap, including those of the epoch it wraps
  // back to, must all read as invalid.
  EXPECT_EQ(cache.valid_lines(), 0u);
  for (u64 line = 0; line < 4; ++line) EXPECT_FALSE(cache.contains(line)) << line;
  // And the wrapped cache still behaves like a fresh one.
  Cache fresh(tiny_cache());
  expect_same_behaviour(cache, fresh, 7, 500);
}

}  // namespace
}  // namespace npat::sim
