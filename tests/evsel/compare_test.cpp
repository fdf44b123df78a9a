#include "evsel/compare.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/check.hpp"
#include "util/random.hpp"

namespace npat::evsel {
namespace {

Measurement make_measurement(const std::string& label, sim::Event event,
                             std::initializer_list<double> values) {
  Measurement m(label);
  for (double v : values) m.add_values({{event, v}});
  return m;
}

TEST(Compare, DetectsShiftedCounter) {
  auto a = make_measurement("a", sim::Event::kL1dMiss, {100, 101, 99, 100, 100});
  auto b = make_measurement("b", sim::Event::kL1dMiss, {200, 199, 201, 200, 200});
  const auto comparison = compare(a, b);
  ASSERT_EQ(comparison.rows.size(), 1u);
  const auto& row = comparison.rows[0];
  EXPECT_TRUE(row.significant(0.01));
  EXPECT_NEAR(row.test.relative_delta, 1.0, 0.03);
  EXPECT_GT(row.test.confidence, 0.999);
}

TEST(Compare, SkipsEventsMissingOnEitherSide) {
  auto a = make_measurement("a", sim::Event::kL1dMiss, {1, 2, 3});
  auto b = make_measurement("b", sim::Event::kL2Miss, {1, 2, 3});
  const auto comparison = compare(a, b);
  EXPECT_TRUE(comparison.rows.empty());
}

TEST(Compare, SkipsSingleRepetitionEvents) {
  auto a = make_measurement("a", sim::Event::kCycles, {1.0});
  auto b = make_measurement("b", sim::Event::kCycles, {2.0, 3.0});
  EXPECT_TRUE(compare(a, b).rows.empty());
}

TEST(Compare, ZeroInBothFlagged) {
  auto a = make_measurement("a", sim::Event::kL3Miss, {0, 0, 0});
  auto b = make_measurement("b", sim::Event::kL3Miss, {0, 0, 0});
  const auto comparison = compare(a, b);
  ASSERT_EQ(comparison.rows.size(), 1u);
  EXPECT_TRUE(comparison.rows[0].zero_in_both);
  EXPECT_FALSE(comparison.rows[0].significant());
}

TEST(Compare, HolmAdjustmentRaisesPValues) {
  util::Xoshiro256ss rng(11);
  Measurement a("a");
  Measurement b("b");
  // 20 null events + 1 real effect.
  for (usize i = 0; i < 21; ++i) {
    const auto event = static_cast<sim::Event>(i);
    for (int rep = 0; rep < 5; ++rep) {
      const double base = rng.normal(100, 5);
      a.add_values({{event, base}});
      b.add_values({{event, rng.normal(i == 0 ? 200 : 100, 5)}});
    }
  }
  CompareOptions adjusted;
  CompareOptions raw;
  raw.adjust_for_multiple_comparisons = false;
  const auto with = compare(a, b, adjusted);
  const auto without = compare(a, b, raw);
  for (usize i = 0; i < with.rows.size(); ++i) {
    EXPECT_GE(with.rows[i].adjusted_p, without.rows[i].adjusted_p - 1e-12);
  }
  // The real effect survives adjustment.
  EXPECT_TRUE(with.rows[0].significant(0.01));
}

TEST(Compare, RowLookupThrowsForAbsentEvent) {
  auto a = make_measurement("a", sim::Event::kCycles, {1, 2});
  auto b = make_measurement("b", sim::Event::kCycles, {1, 2});
  const auto comparison = compare(a, b);
  EXPECT_NO_THROW(comparison.row(sim::Event::kCycles));
  EXPECT_THROW(comparison.row(sim::Event::kL1dMiss), CheckError);
}

}  // namespace
}  // namespace npat::evsel

namespace npat::evsel {
namespace {

TEST(Compare, PermutationTestOption) {
  // Distribution-free comparison: same API, no normality assumption.
  util::Xoshiro256ss rng(77);
  Measurement a("a");
  Measurement b("b");
  for (int rep = 0; rep < 10; ++rep) {  // skewed (log-normal) samples
    a.add_values({{sim::Event::kL1dMiss, 100.0 * std::exp(rng.normal(0.0, 0.8))}});
    b.add_values({{sim::Event::kL1dMiss, 500.0 * std::exp(rng.normal(0.0, 0.8))}});
  }
  CompareOptions options;
  options.test = stats::TTestKind::kPermutation;
  const auto comparison = compare(a, b, options);
  ASSERT_EQ(comparison.rows.size(), 1u);
  EXPECT_TRUE(comparison.rows[0].significant(0.05));
}

}  // namespace
}  // namespace npat::evsel
