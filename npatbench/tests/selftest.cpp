// Self-tests of the benchmark: its statistics helpers, that a layer slowed
// on purpose is named by the traced report, and that a wrong committed
// expectation is counted as a failed operation.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "sim_jobs.hpp"
#include "stats.hpp"
#include "util/check.hpp"

namespace npatbench {
namespace {

TEST(Stats, TailKeepsTenSamplesBeyondIt) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);  // unsorted input
  const Tail t = tail(values);
  EXPECT_EQ(t.value, 90.0);  // 91..100 lie beyond it
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.samples, 100u);

  const Tail smallest = tail({5, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11});
  EXPECT_EQ(smallest.value, 1.0);
  EXPECT_NEAR(smallest.percentile, 100.0 / 11.0, 1e-12);
  EXPECT_THROW(tail({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), npat::CheckError);
}

TEST(Stats, QuartilesMatchPythonStatisticsQuantiles) {
  // Reference values from Python's statistics.quantiles(values, n=4).
  const auto expect = [](std::vector<double> values, Quartiles want) {
    const Quartiles got = quartiles(std::move(values));
    EXPECT_DOUBLE_EQ(got.q1, want.q1);
    EXPECT_DOUBLE_EQ(got.q2, want.q2);
    EXPECT_DOUBLE_EQ(got.q3, want.q3);
  };
  expect({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, {2.75, 5.5, 8.25});
  expect({1, 2}, {0.75, 1.5, 2.25});
  expect({3, 1, 4, 1, 5, 9, 2, 6, 5}, {1.5, 4.0, 5.5});
  expect({0.5, 0.25, 2.0, 1.0}, {0.3125, 0.75, 1.75});
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
}

/// The mini scan job with `delay` busy-waited in each of its program-factory
/// wrappers, the one call site both the untraced job (through
/// Collector::measure) and the traced replay share.
SimJobSpec delayed_scan(std::chrono::milliseconds delay) {
  SimJobSpec spec = scan_compare_spec(kDefaultSeed, JobSize::kMini);
  for (SimPoint& point : spec.points) {
    point.factory = [inner = point.factory, delay] {
      const Clock::time_point until = Clock::now() + delay;
      while (Clock::now() < until) {
      }
      return inner();
    };
  }
  return spec;
}

struct Slowed {
  SimJobResult untraced;
  TracedSimJobResult traced;
  std::map<std::string, double> self;
};

Slowed run_both(std::chrono::milliseconds delay) {
  const SimJobSpec spec = delayed_scan(delay);
  Slowed out;
  out.untraced = run_sim_job(spec);
  Tracer tracer;
  out.traced = run_traced_sim_job(spec, tracer);
  out.self = tracer.self_seconds();
  return out;
}

TEST(Sensitivity, DelayedProgramFactoryMovesJobAndIsChargedToWorkloads) {
  // 300 ms per run: large against the host noise (up to ~15 %) of the
  // mini job's second of work.
  constexpr auto kDelay = std::chrono::milliseconds(300);
  const Slowed base = run_both({});
  const Slowed slowed = run_both(kDelay);
  ASSERT_GT(base.untraced.runs, 0u);
  ASSERT_EQ(base.untraced.runs, slowed.untraced.runs);
  ASSERT_EQ(base.traced.totals.runs, slowed.untraced.runs);
  const double delay_s = 300e-3;
  const double added = static_cast<double>(slowed.untraced.runs) * delay_s;

  // End to end: the untraced job grows by the added time, and each run's
  // step by one delay.
  EXPECT_NEAR(slowed.untraced.job_s - base.untraced.job_s, added, 0.15 * added);
  EXPECT_NEAR(median(slowed.untraced.run_ms) - median(base.untraced.run_ms), 1e3 * delay_s,
              0.15 * 1e3 * delay_s);

  // Per layer: the traced job grows by it too, the workloads module's self
  // time takes all of it, and no other module's moves by much.
  EXPECT_NEAR(slowed.traced.job_s - base.traced.job_s, added, 0.15 * added);
  EXPECT_NEAR(slowed.self.at("workloads") - base.self.at("workloads"), added, 0.1 * added);
  for (const char* other : {"sim", "trace", "os", "perf", "evsel"}) {
    EXPECT_LT(std::abs(slowed.self.at(other) - base.self.at(other)), 0.1 * added) << other;
  }
}

/// The committed-layout expectations at the default seed, recorded once.
const npat::util::Json& expectations() {
  static const npat::util::Json recorded = record_expectations(kDefaultSeed);
  return recorded;
}

npat::util::Json corrupt_first(npat::util::Json expected, const std::string& workload,
                               const std::string& key) {
  npat::util::Json& entry = expected.as_object().at(workload);
  npat::util::Json& value = entry.as_object().at(key);
  if (value.is_array()) {
    value.as_array()[0] = "0000000000000000";
  } else {
    value = "0000000000000000";
  }
  return expected;
}

RunOptions quick(const std::string& workload, npat::util::Json expected) {
  RunOptions options;
  options.workload = workload;
  options.seconds = 0.001;  // the minimum number of jobs
  options.expected = std::move(expected);
  return options;
}

double ok_fraction(const RunReport& report) {
  for (const Metric& metric : report.metrics.all()) {
    if (metric.name == "ok_ops_frac") return metric.value;
  }
  return -1.0;
}

TEST(Expectations, CorruptedFleetDigestFailsOperations) {
  const npat::util::Json& expected = expectations();
  const RunReport clean = run_benchmark(quick("fleet_ingest", expected));
  EXPECT_EQ(clean.checks.failed(), 0u);
  EXPECT_EQ(ok_fraction(clean), 1.0);

  const RunReport bad =
      run_benchmark(quick("fleet_ingest", corrupt_first(expected, "fleet_ingest", "digest")));
  EXPECT_GT(bad.checks.failed(), 0u);
  EXPECT_GT(bad.checks.failed_fraction(), 0.0);
  EXPECT_LT(ok_fraction(bad), 1.0);
}

TEST(Expectations, CorruptedRunCountersFailOperations) {
  const RunReport bad =
      run_benchmark(quick("sort_sweep", corrupt_first(expectations(), "sort_sweep", "runs")));
  // One corrupted run digest, checked once per job.
  EXPECT_EQ(bad.checks.failed(), 3u);
  EXPECT_LT(ok_fraction(bad), 1.0);
}

}  // namespace
}  // namespace npatbench
