// Trust plumbing through EvSel: measurements carry per-event trust tiers
// and the retry-exhaustion count, comparisons quarantine refuted events
// from the Welch/Holm family, and the report surfaces all of it.
#include <gtest/gtest.h>

#include "evsel/compare.hpp"
#include "evsel/measurement.hpp"
#include "evsel/report.hpp"
#include "validate/trust.hpp"

namespace npat::evsel {
namespace {

using validate::TrustTier;

validate::EventTrust make_trust(sim::Event event, TrustTier tier, const std::string& kernel) {
  validate::EventTrust trust;
  trust.event = event;
  trust.tier = tier;
  trust.kernel = kernel;
  trust.checks = 1;
  return trust;
}

Measurement side(const std::string& label, double cycles_base, double l1_base) {
  Measurement m(label);
  for (int rep = 0; rep < 4; ++rep) {
    m.add_values({{sim::Event::kCycles, cycles_base + rep}});
    m.add_values({{sim::Event::kL1dMiss, l1_base + 0.5 * rep}});
  }
  return m;
}

TEST(MeasurementTrust, AnnotatesOnlyRecordedEvents) {
  validate::TrustReport report;
  report.record(make_trust(sim::Event::kCycles, TrustTier::kBounded, "alu"));
  report.record(make_trust(sim::Event::kL3Hit, TrustTier::kRefuted, "chase_l3_exact"));

  Measurement m = side("annotated", 1000.0, 50.0);
  EXPECT_FALSE(m.has_trust_annotations());
  m.annotate_trust(report);
  EXPECT_TRUE(m.has_trust_annotations());
  EXPECT_EQ(m.trust(sim::Event::kCycles), TrustTier::kBounded);
  // Recorded but absent from the report: unvalidated.
  EXPECT_EQ(m.trust(sim::Event::kL1dMiss), TrustTier::kUnvalidated);
  // In the report but never recorded: not annotated.
  EXPECT_EQ(m.trust(sim::Event::kL3Hit), TrustTier::kUnvalidated);
}

TEST(MeasurementTrust, JsonRoundTripKeepsTrustAndExhaustion) {
  validate::TrustReport report;
  report.record(make_trust(sim::Event::kCycles, TrustTier::kSuspect, "branch_weather"));

  Measurement m = side("roundtrip", 1000.0, 50.0);
  m.note_quarantined(2);
  m.note_retry_exhausted(1);
  m.annotate_trust(report);

  const util::Json doc = util::Json::parse(m.to_json().dump());
  EXPECT_DOUBLE_EQ(doc.at("quarantined_runs").as_number(), 2.0);
  EXPECT_DOUBLE_EQ(doc.at("retry_exhausted_runs").as_number(), 1.0);
  // The event absent from the report stays unvalidated and is omitted.
  const util::Json& trust = doc.at("trust");
  EXPECT_EQ(trust.at("cpu.cycles").as_string(), "suspect");
  EXPECT_EQ(trust.find("l1d.replacement"), nullptr);
}

TEST(MeasurementTrust, CleanMeasurementJsonOmitsTheNewFields) {
  const Measurement m = side("clean", 1000.0, 50.0);
  const util::Json doc = m.to_json();
  EXPECT_EQ(doc.find("retry_exhausted_runs"), nullptr);
  EXPECT_EQ(doc.find("trust"), nullptr);
}

TEST(CompareTrust, RefutedEventIsQuarantinedFromTheTest) {
  validate::TrustReport report;
  report.record(make_trust(sim::Event::kCycles, TrustTier::kRefuted, "alu"));
  report.record(make_trust(sim::Event::kL1dMiss, TrustTier::kExact, "l1_resident"));

  // kCycles differs wildly between the sides — without the quarantine it
  // would dominate the significant rows.
  const Measurement a = side("a", 1000.0, 50.0);
  const Measurement b = side("b", 9000.0, 50.2);
  CompareOptions options;
  options.trust = &report;
  const Comparison comparison = compare(a, b, options);

  EXPECT_EQ(comparison.refuted_quarantined, 1u);
  const ComparisonRow& refuted = comparison.row(sim::Event::kCycles);
  EXPECT_EQ(refuted.trust, TrustTier::kRefuted);
  EXPECT_TRUE(refuted.trust_quarantined);
  EXPECT_FALSE(refuted.significant(0.05));
  // The trusted event still gets a real test — and with the refuted row
  // out of the family, its Holm adjustment is over a family of one.
  const ComparisonRow& trusted = comparison.row(sim::Event::kL1dMiss);
  EXPECT_EQ(trusted.trust, TrustTier::kExact);
  EXPECT_FALSE(trusted.trust_quarantined);
  EXPECT_DOUBLE_EQ(trusted.adjusted_p, trusted.test.p_two_tailed);
}

TEST(CompareTrust, AllEventsRefutedIsACountedNoOp) {
  validate::TrustReport report;
  report.record(make_trust(sim::Event::kCycles, TrustTier::kRefuted, "alu"));
  report.record(make_trust(sim::Event::kL1dMiss, TrustTier::kRefuted, "l1_resident"));

  const Measurement a = side("a", 1000.0, 50.0);
  const Measurement b = side("b", 2000.0, 80.0);
  CompareOptions options;
  options.trust = &report;
  const Comparison comparison = compare(a, b, options);

  ASSERT_EQ(comparison.rows.size(), 2u);
  EXPECT_EQ(comparison.refuted_quarantined, 2u);
  for (const ComparisonRow& row : comparison.rows) {
    EXPECT_TRUE(row.trust_quarantined);
    EXPECT_FALSE(row.significant(0.05));
  }
  // Rendering the degenerate comparison neither throws nor divides by zero.
  ReportOptions render_options;
  render_options.include_all_events = true;
  const std::string text = render_comparison(comparison, render_options);
  EXPECT_NE(text.find("2 refuted events excluded"), std::string::npos);
}

TEST(CompareTrust, MeasurementAnnotationsMergeWorstTier) {
  validate::TrustReport report_a;
  report_a.record(make_trust(sim::Event::kCycles, TrustTier::kBounded, "alu"));
  validate::TrustReport report_b;
  report_b.record(make_trust(sim::Event::kCycles, TrustTier::kSuspect, "branch_weather"));

  Measurement a = side("a", 1000.0, 50.0);
  a.annotate_trust(report_a);
  Measurement b = side("b", 1001.0, 50.0);
  b.annotate_trust(report_b);
  // No options.trust, no active report: the measurements' own annotations
  // decide, worst tier winning.
  const Comparison comparison = compare(a, b);
  EXPECT_EQ(comparison.row(sim::Event::kCycles).trust, TrustTier::kSuspect);
  EXPECT_EQ(comparison.row(sim::Event::kL1dMiss).trust, TrustTier::kUnvalidated);
}

TEST(ReportTrust, TitleCarriesQuarantineAndExhaustion) {
  validate::TrustReport report;
  report.record(make_trust(sim::Event::kCycles, TrustTier::kRefuted, "alu"));

  Measurement a = side("a", 1000.0, 50.0);
  a.note_quarantined(1);
  a.note_retry_exhausted(1);
  Measurement b = side("b", 1500.0, 60.0);
  b.note_quarantined(2);
  CompareOptions options;
  options.trust = &report;
  const Comparison comparison = compare(a, b, options);

  ReportOptions render_options;
  render_options.include_all_events = true;
  const std::string text = render_comparison(comparison, render_options);
  EXPECT_NE(text.find("quarantined runs: 1 vs 2"), std::string::npos);
  EXPECT_NE(text.find("retry budget exhausted, outliers kept: 1 vs 0"), std::string::npos);
  EXPECT_NE(text.find("1 refuted event excluded"), std::string::npos);
  EXPECT_NE(text.find("trust"), std::string::npos);
  EXPECT_NE(text.find("quarantined"), std::string::npos);

}

TEST(ReportTrust, MeasurementPaneShowsExhaustionAndTrustColumn) {
  validate::TrustReport report;
  report.record(make_trust(sim::Event::kCycles, TrustTier::kSuspect, "branch_weather"));

  Measurement m = side("pane", 1000.0, 50.0);
  m.note_retry_exhausted(3);
  m.annotate_trust(report);
  const std::string text = render_measurement(m);
  EXPECT_NE(text.find("retry budget exhausted, 3 outlier runs kept"), std::string::npos);
  EXPECT_NE(text.find("suspect"), std::string::npos);
  EXPECT_NE(text.find("trust"), std::string::npos);
}

}  // namespace
}  // namespace npat::evsel
