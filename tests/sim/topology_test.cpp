#include "sim/topology.hpp"

#include <gtest/gtest.h>

#include "sim/presets.hpp"
#include "util/check.hpp"

namespace npat::sim {
namespace {

TEST(Topology, FullyConnected) {
  const Topology t = make_fully_connected(4, 18);
  EXPECT_EQ(t.total_cores(), 72u);
  EXPECT_EQ(t.max_hops(), 1u);
  EXPECT_EQ(t.hops(0, 0), 0u);
  EXPECT_EQ(t.hops(0, 3), 1u);
  EXPECT_EQ(t.node_of_core(0), 0u);
  EXPECT_EQ(t.node_of_core(17), 0u);
  EXPECT_EQ(t.node_of_core(18), 1u);
  EXPECT_EQ(t.first_core(2), 36u);
}

TEST(Topology, TwistedCube) {
  const Topology t = make_twisted_cube(2);
  EXPECT_EQ(t.nodes, 8u);
  EXPECT_EQ(t.hops(0, 1), 1u);  // same quad
  EXPECT_EQ(t.hops(0, 4), 1u);  // partner across quads
  EXPECT_EQ(t.hops(0, 5), 2u);  // non-partner across quads
  EXPECT_EQ(t.max_hops(), 2u);
}

TEST(Topology, ValidateRejectsAsymmetry) {
  Topology t = make_fully_connected(2, 1);
  t.distance_hops[0][1] = 2;  // breaks symmetry
  EXPECT_THROW(t.validate(), CheckError);
}

TEST(Topology, ValidateRejectsNonzeroDiagonal) {
  Topology t = make_fully_connected(2, 1);
  t.distance_hops[0][0] = 1;
  EXPECT_THROW(t.validate(), CheckError);
}

TEST(Topology, HopsOutOfRangeThrows) {
  const Topology t = make_fully_connected(2, 1);
  EXPECT_THROW(t.hops(0, 2), CheckError);
}

TEST(Presets, Dl580MatchesTableOne) {
  const MachineConfig config = hpe_dl580_gen9();
  EXPECT_EQ(config.topology.nodes, 4u);
  EXPECT_EQ(config.topology.cores_per_node, 18u);
  EXPECT_DOUBLE_EQ(config.topology.frequency_ghz, 2.4);
  EXPECT_EQ(config.topology.memory_per_node_bytes, GiB(32));
  EXPECT_EQ(config.topology.memory_frequency_mhz, 1600u);
  EXPECT_EQ(config.topology.max_hops(), 1u);  // fully interconnected
  EXPECT_EQ(config.l3.size_bytes, MiB(45));

  const SystemSpec spec = hpe_dl580_gen9_spec();
  EXPECT_NE(spec.server_model.find("DL580"), std::string::npos);
  EXPECT_NE(spec.processor.find("8890"), std::string::npos);
}

TEST(Presets, ByNameKnownAndUnknown) {
  for (const std::string name : {"dl580", "dl580-full", "dual", "uma", "cube8"}) {
    const MachineConfig config = preset_by_name(name);
    EXPECT_GE(config.topology.nodes, 1u) << name;
  }
  EXPECT_THROW(preset_by_name("bogus"), CheckError);
}

TEST(Presets, DescribeMentionsShape) {
  const auto config = preset_by_name("dual");
  const std::string text = config.topology.describe();
  EXPECT_NE(text.find("2 node"), std::string::npos);
  EXPECT_NE(text.find("hop matrix"), std::string::npos);
}

}  // namespace
}  // namespace npat::sim
