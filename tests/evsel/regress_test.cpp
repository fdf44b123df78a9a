#include "evsel/regress.hpp"

#include <gtest/gtest.h>

#include "sim/presets.hpp"
#include "util/check.hpp"
#include "util/random.hpp"
#include "workloads/kernels.hpp"

namespace npat::evsel {
namespace {

Measurement at(double param, sim::Event event, std::initializer_list<double> values) {
  Measurement m("p=" + std::to_string(param));
  m.set_parameter("p", param);
  for (double v : values) m.add_values({{event, v}});
  return m;
}

TEST(Correlate, LinearRelationDetected) {
  std::vector<Measurement> ms;
  for (double p : {1.0, 2.0, 4.0, 8.0}) {
    ms.push_back(at(p, sim::Event::kAtomicOps, {10 * p, 10 * p + 0.5, 10 * p - 0.5}));
  }
  const auto result = correlate("p", std::move(ms));
  const auto* row = result.correlation(sim::Event::kAtomicOps);
  ASSERT_NE(row, nullptr);
  EXPECT_GT(row->best.r, 0.99);
  EXPECT_EQ(row->points, 12u);
}

TEST(Correlate, NegativeCorrelationSign) {
  std::vector<Measurement> ms;
  for (double p : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    ms.push_back(at(p, sim::Event::kSpeculativeJumpsRetired,
                    {1000 - 50 * p, 1001 - 50 * p}));
  }
  const auto result = correlate("p", std::move(ms));
  const auto* row = result.correlation(sim::Event::kSpeculativeJumpsRetired);
  ASSERT_NE(row, nullptr);
  EXPECT_LT(row->best.r, -0.99);
}

TEST(Correlate, ConstantEventHasNoCorrelation) {
  std::vector<Measurement> ms;
  for (double p : {1.0, 2.0, 3.0}) {
    ms.push_back(at(p, sim::Event::kCycles, {42, 42}));
  }
  const auto result = correlate("p", std::move(ms));
  EXPECT_EQ(result.correlation(sim::Event::kCycles), nullptr);
}

TEST(Correlate, StrongestSortsByAbsoluteR) {
  std::vector<Measurement> ms;
  util::Xoshiro256ss rng(3);
  for (double p : {1.0, 2.0, 4.0, 8.0}) {
    Measurement m("p=" + std::to_string(p));
    m.set_parameter("p", p);
    for (int rep = 0; rep < 3; ++rep) {
      m.add_values({{sim::Event::kAtomicOps, 5 * p + rng.normal(0, 0.01)}});  // clean
      m.add_values({{sim::Event::kBranchMisses, p + rng.normal(0, 5.0)}});    // noisy
    }
    ms.push_back(std::move(m));
  }
  const auto result = correlate("p", std::move(ms));
  const auto strongest = result.strongest();
  ASSERT_GE(strongest.size(), 2u);
  EXPECT_EQ(strongest[0].event, sim::Event::kAtomicOps);
}

TEST(Correlate, ThresholdFilters) {
  std::vector<Measurement> ms;
  util::Xoshiro256ss rng(5);
  for (double p : {1.0, 2.0, 4.0, 8.0}) {
    Measurement m("x");
    m.set_parameter("p", p);
    for (int rep = 0; rep < 4; ++rep) {
      m.add_values({{sim::Event::kL3Miss, rng.normal(100, 30)}});  // pure noise
    }
    ms.push_back(std::move(m));
  }
  const auto result = correlate("p", std::move(ms));
  EXPECT_TRUE(result.strongest(0.95).empty());
}

TEST(Correlate, TooFewValuesRejected) {
  std::vector<Measurement> ms;
  ms.push_back(at(1.0, sim::Event::kCycles, {1}));
  ms.push_back(at(2.0, sim::Event::kCycles, {2}));
  EXPECT_THROW(correlate("p", std::move(ms)), CheckError);
}

TEST(Sweep, EndToEndThreadSweepFindsAtomicCorrelation) {
  Collector collector(sim::dual_socket_small(4));
  CollectOptions options;
  options.repetitions = 2;
  options.events = {sim::Event::kAtomicOps, sim::Event::kCycles};
  const auto result = sweep(
      collector, "threads", {1.0, 2.0, 4.0, 8.0},
      [](double threads) {
        workloads::StreamParams params;
        params.threads = static_cast<u32>(threads);
        params.elements_per_thread = 1 << 10;
        params.iterations = 2;
        return workloads::stream_triad_program(params);
      },
      options);
  // Barrier atomics scale with the thread count.
  const auto* row = result.correlation(sim::Event::kAtomicOps);
  ASSERT_NE(row, nullptr);
  EXPECT_GT(row->best.r, 0.95);
  // Each measurement carries its swept parameter.
  for (const auto& m : result.measurements) {
    EXPECT_NO_THROW(m.parameter("threads"));
  }
}

}  // namespace
}  // namespace npat::evsel
