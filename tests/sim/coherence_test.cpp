#include "sim/coherence.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"

namespace npat::sim {
namespace {

CoherenceCosts costs() { return CoherenceCosts{40, 90}; }

TEST(Coherence, FirstReadIsFree) {
  CoherenceDirectory dir(4, costs());
  const auto outcome = dir.on_read(1, /*core=*/0, /*node=*/0);
  EXPECT_EQ(outcome.extra_latency, 0u);
  EXPECT_FALSE(outcome.remote_hitm);
  EXPECT_EQ(dir.tracked_lines(), 1u);
}

TEST(Coherence, ReadAfterRemoteWriteIsHitm) {
  CoherenceDirectory dir(4, costs());
  dir.on_write(1, 0, 0);
  const auto outcome = dir.on_read(1, 18, 1);
  EXPECT_TRUE(outcome.remote_hitm);
  EXPECT_EQ(outcome.remote_snoops, 1u);
  EXPECT_EQ(outcome.extra_latency, 90u);
}

TEST(Coherence, SecondReadAfterHitmIsClean) {
  CoherenceDirectory dir(4, costs());
  dir.on_write(1, 0, 0);
  dir.on_read(1, 18, 1);  // downgrades to shared
  const auto outcome = dir.on_read(1, 36, 2);
  EXPECT_FALSE(outcome.remote_hitm);
  EXPECT_EQ(outcome.extra_latency, 0u);
}

TEST(Coherence, WriteInvalidatesRemoteSharers) {
  CoherenceDirectory dir(4, costs());
  dir.on_read(1, 0, 0);
  dir.on_read(1, 18, 1);
  dir.on_read(1, 36, 2);
  const auto outcome = dir.on_write(1, 0, 0);
  EXPECT_EQ(outcome.invalidations_sent, 2u);  // nodes 1 and 2
  EXPECT_EQ(outcome.extra_latency, 2u * 40u);
}

TEST(Coherence, WriteBySharingNodeInvalidatesOnlyOthers) {
  CoherenceDirectory dir(2, costs());
  dir.on_read(5, 0, 0);
  dir.on_read(5, 2, 1);
  const auto outcome = dir.on_write(5, 2, 1);
  EXPECT_EQ(outcome.invalidations_sent, 1u);  // only node 0
}

TEST(Coherence, WriteAfterRemoteWriteHitmPlusOwnership) {
  CoherenceDirectory dir(2, costs());
  dir.on_write(9, 0, 0);
  const auto outcome = dir.on_write(9, 2, 1);
  EXPECT_TRUE(outcome.remote_hitm);
  EXPECT_GE(outcome.extra_latency, 90u);
  // Ping-pong: writing back from node 0 must HITM again.
  const auto back = dir.on_write(9, 0, 0);
  EXPECT_TRUE(back.remote_hitm);
}

TEST(Coherence, SameNodeTrafficIsFree) {
  CoherenceDirectory dir(2, costs());
  dir.on_write(3, 0, 0);
  const auto read = dir.on_read(3, 1, 0);  // another core, same node
  EXPECT_FALSE(read.remote_hitm);
  EXPECT_EQ(read.extra_latency, 0u);
  const auto write = dir.on_write(3, 1, 0);
  EXPECT_EQ(write.invalidations_sent, 0u);
}

TEST(Coherence, TooManyNodesRejected) {
  EXPECT_THROW(CoherenceDirectory dir(17, costs()), CheckError);
}

}  // namespace
}  // namespace npat::sim
