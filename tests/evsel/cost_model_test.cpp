#include "evsel/cost_model.hpp"

#include <gtest/gtest.h>

#include "evsel/collector.hpp"
#include "sim/presets.hpp"
#include "util/check.hpp"
#include "util/random.hpp"
#include "workloads/cache_scan.hpp"

namespace npat::evsel {
namespace {

Measurement synthetic(double l1_miss, double dram, double noise_seed) {
  // cost = 1000 + 10*l1_miss + 200*dram (+ small noise)
  util::Xoshiro256ss rng(static_cast<u64>(noise_seed * 1000));
  Measurement m("synthetic");
  for (int rep = 0; rep < 3; ++rep) {
    m.add_values({{sim::Event::kL1dMiss, l1_miss + rng.normal(0, 0.1)}});
    m.add_values({{sim::Event::kMemLoadLocalDram, dram + rng.normal(0, 0.1)}});
    m.add_values(
        {{sim::Event::kCycles, 1000.0 + 10.0 * l1_miss + 200.0 * dram + rng.normal(0, 1.0)}});
    m.add_values({{sim::Event::kRefCycles, 42.0}});  // constant -> must be dropped
  }
  return m;
}

std::vector<Measurement> synthetic_training() {
  std::vector<Measurement> out;
  int i = 0;
  for (double l1 : {10.0, 50.0, 100.0, 200.0, 400.0}) {
    for (double dram : {1.0, 5.0, 20.0}) {
      out.push_back(synthetic(l1, dram, ++i));
    }
  }
  return out;
}

TEST(CostModel, RecoversLinearWeights) {
  const auto model = CostModel::train(synthetic_training());
  ASSERT_TRUE(model.has_value());
  EXPECT_GT(model->training_r_squared(), 0.999);
  EXPECT_NEAR(model->intercept(), 1000.0, 20.0);
  for (const auto& feature : model->features()) {
    if (feature.event == sim::Event::kL1dMiss) {
      EXPECT_NEAR(feature.weight, 10.0, 0.5);
    }
    if (feature.event == sim::Event::kMemLoadLocalDram) {
      EXPECT_NEAR(feature.weight, 200.0, 5.0);
    }
  }
}

TEST(CostModel, DropsNearConstantIndicators) {
  const auto model = CostModel::train(synthetic_training());
  ASSERT_TRUE(model.has_value());
  bool dropped_ref = false;
  for (const sim::Event event : model->dropped()) {
    dropped_ref |= event == sim::Event::kRefCycles;
  }
  EXPECT_TRUE(dropped_ref);
  for (const auto& feature : model->features()) {
    EXPECT_NE(feature.event, sim::Event::kRefCycles);
  }
}

TEST(CostModel, PredictsUnseenConfiguration) {
  const auto model = CostModel::train(synthetic_training());
  ASSERT_TRUE(model.has_value());
  const auto unseen = synthetic(300.0, 10.0, 999);
  const double expected = 1000.0 + 10.0 * 300.0 + 200.0 * 10.0;
  EXPECT_NEAR(model->predict(unseen), expected, expected * 0.02);
}

TEST(CostModel, DegenerateTrainingRejected) {
  std::vector<Measurement> too_few = {synthetic(10, 1, 1)};
  EXPECT_FALSE(CostModel::train(too_few).has_value());

  // All features constant -> nothing to fit.
  std::vector<Measurement> constant;
  for (int i = 0; i < 6; ++i) constant.push_back(synthetic(10, 1, 1));
  CostModelOptions options;
  options.min_coefficient_of_variation = 0.5;
  EXPECT_FALSE(CostModel::train(constant, options).has_value());
}

TEST(CostModel, DescribeListsWeights) {
  const auto model = CostModel::train(synthetic_training());
  ASSERT_TRUE(model.has_value());
  const std::string out = model->describe();
  EXPECT_NE(out.find("l1d.replacement"), std::string::npos);
  EXPECT_NE(out.find("(intercept)"), std::string::npos);
  EXPECT_NE(out.find("dropped near-constant"), std::string::npos);
}

TEST(CostModel, EndToEndOnSimulatedMeasurements) {
  // The full two-step loop: train on small sizes, predict a bigger one.
  Collector collector(sim::uma_single_node(1));
  CollectOptions options;
  options.repetitions = 2;
  // Few, non-collinear features: loads and l1-misses scale identically
  // with size, so only one of them enters the model.
  options.events = {sim::Event::kCycles, sim::Event::kLoadsRetired,
                    sim::Event::kStallCyclesMem};

  std::vector<Measurement> training;
  for (usize size : {32u, 48u, 64u, 80u, 96u, 112u, 128u}) {
    workloads::CacheScanParams params;
    params.size = size;
    params.fill_phase = false;
    training.push_back(collector.measure(
        "s" + std::to_string(size),
        [params] { return workloads::cache_scan_program(params); }, options));
  }
  const auto model = CostModel::train(training);
  ASSERT_TRUE(model.has_value());
  EXPECT_GT(model->training_r_squared(), 0.99);

  workloads::CacheScanParams big;
  big.size = 192;
  big.fill_phase = false;
  const auto target = collector.measure(
      "s192", [big] { return workloads::cache_scan_program(big); }, options);
  const double actual = target.mean(sim::Event::kCycles);
  EXPECT_NEAR(model->predict(target) / actual, 1.0, 0.15);
}

// Regression: a requested event no measurement recorded used to flow in as
// a silent zero column; now it hard-errors naming the event.
TEST(CostModel, TrainHardErrorsOnUnmeasuredIndicator) {
  CostModelOptions options;
  options.indicators = {sim::Event::kL1dMiss, sim::Event::kL3Miss};  // L3 never recorded
  try {
    CostModel::train(synthetic_training(), options);
    FAIL() << "expected CheckError for the unmeasured indicator";
  } catch (const CheckError& error) {
    EXPECT_NE(std::string(error.what()).find(std::string(sim::event_name(sim::Event::kL3Miss))),
              std::string::npos)
        << error.what();
  }
}

TEST(CostModel, TrainHardErrorsOnUnmeasuredCostEvent) {
  CostModelOptions options;
  options.cost = sim::Event::kUncEnergyMicroJoules;  // never recorded by synthetic()
  options.indicators = {sim::Event::kL1dMiss};
  EXPECT_THROW(CostModel::train(synthetic_training(), options), CheckError);
}

TEST(CostModel, PredictHardErrorsOnMissingFeature) {
  const auto model = CostModel::train(synthetic_training());
  ASSERT_TRUE(model.has_value());
  Measurement incomplete("incomplete");
  incomplete.add_values({{sim::Event::kCycles, 1000.0}});  // features absent
  try {
    model->predict(incomplete);
    FAIL() << "expected CheckError for the missing feature";
  } catch (const CheckError& error) {
    EXPECT_NE(std::string(error.what()).find("incomplete"), std::string::npos) << error.what();
  }
}

}  // namespace
}  // namespace npat::evsel
