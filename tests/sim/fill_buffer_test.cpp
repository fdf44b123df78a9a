#include "sim/fill_buffer.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"

namespace npat::sim {
namespace {

TEST(FillBuffer, NoRejectsWhileCapacityFree) {
  FillBuffer fb(FillBufferConfig{4});
  for (int i = 0; i < 4; ++i) {
    const auto result = fb.allocate(0, 100);
    EXPECT_EQ(result.rejects, 0u);
    EXPECT_EQ(result.stall, 0u);
  }
  EXPECT_GT(fb.allocate(0, 100).rejects, 0u);  // the fifth finds all four busy
}

TEST(FillBuffer, FullBufferRejectsAndStalls) {
  FillBuffer fb(FillBufferConfig{2});
  fb.allocate(0, 100);  // frees at 100
  fb.allocate(0, 150);  // frees at 150
  const auto result = fb.allocate(10, 50);
  EXPECT_EQ(result.stall, 90u);            // waits until cycle 100
  EXPECT_EQ(result.rejects, 1u + 90u / 4u);  // one reject per 4-cycle retry
}

TEST(FillBuffer, EntriesExpireOverTime) {
  FillBuffer fb(FillBufferConfig{2});
  fb.allocate(0, 10);
  fb.allocate(0, 10);
  const auto result = fb.allocate(20, 10);  // both expired by now
  EXPECT_EQ(result.rejects, 0u);
  EXPECT_EQ(fb.allocate(20, 10).rejects, 0u);  // the second entry is free
  EXPECT_GT(fb.allocate(20, 10).rejects, 0u);  // now both are busy
}

TEST(FillBuffer, BackToBackMissesAccumulateRejects) {
  FillBuffer fb(FillBufferConfig{10});
  u32 rejects = 0;
  Cycles now = 0;
  // Misses every 5 cycles, each occupying 200 cycles: steady state demand
  // of 40 outstanding > 10 entries -> most requests rejected.
  for (int i = 0; i < 200; ++i) {
    const auto result = fb.allocate(now, 200);
    rejects += result.rejects;
    now += 5 + result.stall;
  }
  EXPECT_GT(rejects, 150u);
}

TEST(FillBuffer, SparseMissesNeverReject) {
  FillBuffer fb(FillBufferConfig{10});
  u32 rejects = 0;
  Cycles now = 0;
  for (int i = 0; i < 200; ++i) {
    rejects += fb.allocate(now, 50).rejects;
    now += 100;  // far apart
  }
  EXPECT_EQ(rejects, 0u);
}

TEST(FillBuffer, ClearReleasesEverything) {
  FillBuffer fb(FillBufferConfig{1});
  fb.allocate(0, 1000);
  fb.clear();
  EXPECT_EQ(fb.allocate(1, 10).rejects, 0u);
}

TEST(FillBuffer, ZeroEntriesRejected) {
  EXPECT_THROW(FillBuffer fb(FillBufferConfig{0}), CheckError);
}

}  // namespace
}  // namespace npat::sim
