#include "util/random.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace npat::util {
namespace {

TEST(Xoshiro, DeterministicForSeed) {
  Xoshiro256ss a(42);
  Xoshiro256ss b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, DifferentSeedsDiverge) {
  Xoshiro256ss a(1);
  Xoshiro256ss b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a() == b() ? 1 : 0;
  EXPECT_LT(equal, 3);
}

TEST(Xoshiro, UniformInUnitInterval) {
  Xoshiro256ss rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Xoshiro, BelowIsUnbiasedEnough) {
  Xoshiro256ss rng(11);
  std::array<int, 5> counts{};
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) counts[rng.below(5)]++;
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kDraws, 0.2, 0.02);
  }
}

TEST(Xoshiro, RangeInclusive) {
  Xoshiro256ss rng(13);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const i64 v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Xoshiro, NormalMomentsRoughlyStandard) {
  Xoshiro256ss rng(17);
  double sum = 0;
  double sum_sq = 0;
  constexpr int kDraws = 40000;
  for (int i = 0; i < kDraws; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / kDraws, 1.0, 0.05);
}

TEST(Xoshiro, ChanceEdgeCases) {
  Xoshiro256ss rng(31);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(BsdLcg, MatchesPaperConstants) {
  // Listing 3: lcg = lcg * 1103515245 + 12345, seed 1337.
  BsdLcg lcg(1337);
  const u32 first = lcg();
  EXPECT_EQ(first, 1337u * 1103515245u + 12345u);
  const u32 second = lcg();
  EXPECT_EQ(second, first * 1103515245u + 12345u);
}

TEST(BsdLcg, OverflowWraps) {
  BsdLcg lcg(0xFFFFFFFFu);
  (void)lcg();  // must not UB; u32 wraps by definition
  SUCCEED();
}

TEST(SplitMix, ProducesDistinctStream) {
  u64 state = 0;
  const u64 a = splitmix64(state);
  const u64 b = splitmix64(state);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace npat::util
