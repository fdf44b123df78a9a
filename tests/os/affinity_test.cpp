#include "os/affinity.hpp"

#include <gtest/gtest.h>

namespace npat::os {
namespace {

TEST(Affinity, CompactFillsFirstNodeFirst) {
  const auto topology = sim::make_fully_connected(4, 4);
  for (u32 i = 0; i < 6; ++i) {
    EXPECT_EQ(core_for_thread(topology, AffinityPolicy::kCompact, i), i);
  }
  EXPECT_EQ(topology.node_of_core(3), 0u);
  EXPECT_EQ(topology.node_of_core(4), 1u);
}

TEST(Affinity, ScatterSpreadsAcrossNodes) {
  const auto topology = sim::make_fully_connected(4, 4);
  for (u32 i = 0; i < 4; ++i) {
    EXPECT_EQ(topology.node_of_core(core_for_thread(topology, AffinityPolicy::kScatter, i)), i);
  }
  // Fifth thread wraps back to node 0, second core.
  EXPECT_EQ(core_for_thread(topology, AffinityPolicy::kScatter, 4), 1u);
}

TEST(Affinity, OversubscriptionWraps) {
  const auto topology = sim::make_fully_connected(2, 2);
  EXPECT_EQ(core_for_thread(topology, AffinityPolicy::kCompact, 4), 0u);
  EXPECT_EQ(core_for_thread(topology, AffinityPolicy::kCompact, 5), 1u);
}

TEST(Affinity, Names) {
  EXPECT_STREQ(affinity_name(AffinityPolicy::kCompact), "compact");
  EXPECT_STREQ(affinity_name(AffinityPolicy::kScatter), "scatter");
}

}  // namespace
}  // namespace npat::os
