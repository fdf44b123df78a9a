#include "perf/registry.hpp"

#include <gtest/gtest.h>

namespace npat::perf {
namespace {

TEST(Registry, AllEventsListed) {
  EXPECT_EQ(available_events().size(), sim::kEventCount);
}

TEST(Registry, ScopeFiltering) {
  const auto fixed = events_with_scope(sim::EventScope::kFixed);
  const auto core = events_with_scope(sim::EventScope::kCore);
  const auto uncore = events_with_scope(sim::EventScope::kUncore);
  EXPECT_EQ(fixed.size() + core.size() + uncore.size(), sim::kEventCount);
  EXPECT_EQ(fixed.size(), 4u);  // 3 hardware-fixed + 1 software
  EXPECT_GE(uncore.size(), 6u);
}

TEST(Registry, FixedAndUncorePredicates) {
  EXPECT_TRUE(is_fixed(sim::Event::kCycles));
  EXPECT_FALSE(is_fixed(sim::Event::kL1dMiss));
  EXPECT_TRUE(is_uncore(sim::Event::kUncImcReads));
  EXPECT_FALSE(is_uncore(sim::Event::kL1dMiss));
}

}  // namespace
}  // namespace npat::perf
