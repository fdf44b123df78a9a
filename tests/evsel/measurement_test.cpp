#include "evsel/measurement.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"

namespace npat::evsel {
namespace {

TEST(Measurement, AddAndQueryValues) {
  Measurement m("run-a");
  m.add_values({{sim::Event::kCycles, 100.0}});
  m.add_values({{sim::Event::kCycles, 110.0}});
  m.add_values({{sim::Event::kL1dMiss, 5.0}});

  EXPECT_TRUE(m.has(sim::Event::kCycles));
  EXPECT_FALSE(m.has(sim::Event::kL2Miss));
  EXPECT_EQ(m.repetitions(sim::Event::kCycles), 2u);
  EXPECT_DOUBLE_EQ(m.mean(sim::Event::kCycles), 105.0);
  EXPECT_TRUE(m.samples(sim::Event::kBranches).empty());
}

TEST(Measurement, AddValuesFromSession) {
  Measurement m("x");
  std::vector<perf::EventValue> run = {
      {sim::Event::kCycles, 42.0, false},
      {sim::Event::kInstructions, 21.0, false},
  };
  m.add_values(run);
  m.add_values(run);
  EXPECT_EQ(m.repetitions(sim::Event::kCycles), 2u);
  EXPECT_DOUBLE_EQ(m.mean(sim::Event::kInstructions), 21.0);
}

TEST(Measurement, Parameters) {
  Measurement m("sweep");
  m.set_parameter("threads", 8.0);
  EXPECT_DOUBLE_EQ(m.parameter("threads"), 8.0);
  EXPECT_THROW(m.parameter("nope"), CheckError);
}

TEST(Measurement, RecordedEventsInRegistryOrder) {
  Measurement m("x");
  m.add_values({{sim::Event::kL2Miss, 1.0}});
  m.add_values({{sim::Event::kCycles, 1.0}});
  const auto events = m.recorded_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], sim::Event::kCycles);  // registry order, not insertion
  EXPECT_EQ(events[1], sim::Event::kL2Miss);
}

TEST(Measurement, AllZeroDetection) {
  Measurement m("x");
  m.add_values({{sim::Event::kL3Miss, 0.0}});
  m.add_values({{sim::Event::kL3Miss, 0.0}});
  m.add_values({{sim::Event::kL2Miss, 0.0}});
  m.add_values({{sim::Event::kL2Miss, 1.0}});
  EXPECT_TRUE(m.all_zero(sim::Event::kL3Miss));
  EXPECT_FALSE(m.all_zero(sim::Event::kL2Miss));
  EXPECT_TRUE(m.all_zero(sim::Event::kCycles));  // never recorded
}

TEST(Measurement, JsonRoundTrip) {
  Measurement m("round-trip");
  m.set_parameter("threads", 4.0);
  m.add_values({{sim::Event::kCycles, 123.0}});
  m.add_values({{sim::Event::kCycles, 456.0}});
  m.add_values({{sim::Event::kBranchMisses, 7.0}});

  // The exported document survives a text round trip with every sample.
  const auto doc = util::Json::parse(m.to_json().dump());
  EXPECT_EQ(doc.at("label").as_string(), "round-trip");
  EXPECT_DOUBLE_EQ(doc.at("parameters").at("threads").as_number(), 4.0);
  const auto& cycles = doc.at("events").at("cpu.cycles").as_array();
  ASSERT_EQ(cycles.size(), 2u);
  EXPECT_DOUBLE_EQ(cycles[0].as_number(), 123.0);
  EXPECT_DOUBLE_EQ(cycles[1].as_number(), 456.0);
  EXPECT_EQ(doc.at("events").as_object().size(), 2u);
}

}  // namespace
}  // namespace npat::evsel
