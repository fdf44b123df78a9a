#include "os/procfs.hpp"

#include <gtest/gtest.h>

namespace npat::os {
namespace {

TEST(Procfs, RecorderCapturesFootprint) {
  const auto topology = sim::make_fully_connected(1, 1);
  AddressSpace space(topology);
  FootprintRecorder recorder(space);

  recorder.sample(0);
  space.allocate(3 * kPageBytes);
  recorder.sample(100);
  space.allocate(kPageBytes);
  recorder.sample(200);

  const auto& samples = recorder.samples();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].reserved_bytes, 0u);
  EXPECT_EQ(samples[1].reserved_bytes, 3 * kPageBytes);
  EXPECT_EQ(samples[2].reserved_bytes, 4 * kPageBytes);
  EXPECT_EQ(samples[2].timestamp, 200u);
}

TEST(Procfs, ResidentVsReserved) {
  const auto topology = sim::make_fully_connected(1, 1);
  AddressSpace space(topology);
  FootprintRecorder recorder(space);
  const VirtAddr base = space.allocate(4 * kPageBytes);
  space.translate(base, 0);
  recorder.sample(1);
  EXPECT_EQ(recorder.samples()[0].reserved_bytes, 4 * kPageBytes);
  EXPECT_EQ(recorder.samples()[0].resident_bytes, kPageBytes);
}

TEST(Procfs, ClearDropsHistory) {
  const auto topology = sim::make_fully_connected(1, 1);
  AddressSpace space(topology);
  FootprintRecorder recorder(space);
  recorder.sample(1);
  recorder.clear();
  EXPECT_TRUE(recorder.samples().empty());
}

}  // namespace
}  // namespace npat::os
