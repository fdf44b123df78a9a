#include "sim/events.hpp"

#include <gtest/gtest.h>

#include <set>

#include "util/check.hpp"

namespace npat::sim {
namespace {

TEST(Events, RegistryCoversEveryEnumValue) {
  EXPECT_EQ(all_events().size(), kEventCount);
  for (usize i = 0; i < kEventCount; ++i) {
    const Event e = static_cast<Event>(i);
    EXPECT_EQ(event_info(e).event, e);
    EXPECT_FALSE(event_name(e).empty());
    EXPECT_FALSE(event_info(e).description.empty());
  }
}

TEST(Events, NamesAreUnique) {
  std::set<std::string_view> names;
  for (const auto& info : all_events()) {
    EXPECT_TRUE(names.insert(info.name).second) << "duplicate: " << info.name;
  }
}

TEST(Events, CodeUmaskPairsAreUnique) {
  std::set<std::pair<u16, u8>> pairs;
  for (const auto& info : all_events()) {
    EXPECT_TRUE(pairs.insert({info.code, info.umask}).second)
        << "duplicate code/umask: " << info.name;
  }
}

TEST(Events, LookupByName) {
  const auto event = event_by_name("l1d.replacement");
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(*event, Event::kL1dMiss);
  EXPECT_FALSE(event_by_name("no.such.event").has_value());
}

TEST(Events, FixedCountersPresent) {
  EXPECT_EQ(event_info(Event::kCycles).scope, EventScope::kFixed);
  EXPECT_EQ(event_info(Event::kInstructions).scope, EventScope::kFixed);
  EXPECT_EQ(event_info(Event::kUncImcReads).scope, EventScope::kUncore);
  EXPECT_EQ(event_info(Event::kL1dMiss).scope, EventScope::kCore);
}

TEST(CounterBlock, AddAndAggregate) {
  CounterBlock a;
  a.add(Event::kCycles, 10);
  a.add(Event::kCycles);
  EXPECT_EQ(a[Event::kCycles], 11u);

  CounterBlock b;
  b.add(Event::kCycles, 5);
  b.add(Event::kL1dMiss, 2);
  a += b;
  EXPECT_EQ(a[Event::kCycles], 16u);
  EXPECT_EQ(a[Event::kL1dMiss], 2u);

  a.clear();
  EXPECT_EQ(a[Event::kCycles], 0u);
}

}  // namespace
}  // namespace npat::sim
