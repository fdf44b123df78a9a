#include "validate/trust.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"

namespace npat::validate {
namespace {

TEST(TrustTier, NamesRoundTrip) {
  for (const TrustTier tier : {TrustTier::kExact, TrustTier::kBounded, TrustTier::kSuspect,
                               TrustTier::kRefuted, TrustTier::kUnvalidated}) {
    EXPECT_EQ(tier_from_name(tier_name(tier)), tier);
  }
}

TEST(TrustTier, UnknownNameThrows) {
  EXPECT_THROW(tier_from_name("trusted"), CheckError);
  EXPECT_THROW(tier_from_name(""), CheckError);
}

TEST(TrustTier, WorseOrdersByDistrust) {
  EXPECT_EQ(worse(TrustTier::kExact, TrustTier::kBounded), TrustTier::kBounded);
  EXPECT_EQ(worse(TrustTier::kRefuted, TrustTier::kSuspect), TrustTier::kRefuted);
  EXPECT_EQ(worse(TrustTier::kExact, TrustTier::kExact), TrustTier::kExact);
}

TEST(TrustTier, BelowBounded) {
  EXPECT_FALSE(below_bounded(TrustTier::kExact));
  EXPECT_FALSE(below_bounded(TrustTier::kBounded));
  EXPECT_TRUE(below_bounded(TrustTier::kSuspect));
  EXPECT_TRUE(below_bounded(TrustTier::kRefuted));
  EXPECT_FALSE(below_bounded(TrustTier::kUnvalidated));
}

EventTrust make_trust(sim::Event event, TrustTier tier, const std::string& kernel,
                      double ratio = 1.0) {
  EventTrust trust;
  trust.event = event;
  trust.tier = tier;
  trust.kernel = kernel;
  trust.observed_ratio = ratio;
  trust.checks = 1;
  return trust;
}

TEST(TrustReport, UnrecordedEventIsUnvalidated) {
  TrustReport report;
  EXPECT_EQ(report.tier(sim::Event::kCycles), TrustTier::kUnvalidated);
  EXPECT_EQ(report.evidence(sim::Event::kCycles), nullptr);
  EXPECT_EQ(report.validated_events(), 0u);
  EXPECT_FALSE(report.all_trusted());
}

TEST(TrustReport, WorstTierOwnsTheCitation) {
  TrustReport report;
  report.record(make_trust(sim::Event::kCycles, TrustTier::kExact, "alu"));
  report.record(make_trust(sim::Event::kCycles, TrustTier::kSuspect, "branch_weather", 1.3));
  report.record(make_trust(sim::Event::kCycles, TrustTier::kBounded, "atomic_ticket"));

  const EventTrust* evidence = report.evidence(sim::Event::kCycles);
  ASSERT_NE(evidence, nullptr);
  EXPECT_EQ(evidence->tier, TrustTier::kSuspect);
  EXPECT_EQ(evidence->kernel, "branch_weather");
  EXPECT_DOUBLE_EQ(evidence->observed_ratio, 1.3);
  EXPECT_EQ(evidence->checks, 3u);
}

TEST(TrustReport, TiesKeepTheFirstWitness) {
  TrustReport report;
  report.record(make_trust(sim::Event::kInstructions, TrustTier::kBounded, "first"));
  report.record(make_trust(sim::Event::kInstructions, TrustTier::kBounded, "second"));
  EXPECT_EQ(report.evidence(sim::Event::kInstructions)->kernel, "first");
}

TEST(TrustReport, CountsAndThresholds) {
  TrustReport report;
  report.record(make_trust(sim::Event::kCycles, TrustTier::kExact, "alu"));
  report.record(make_trust(sim::Event::kInstructions, TrustTier::kBounded, "alu"));
  report.record(make_trust(sim::Event::kL2Access, TrustTier::kSuspect, "stream_l2_exact"));
  report.record(make_trust(sim::Event::kL3Hit, TrustTier::kRefuted, "chase_l3_exact", 2.5));

  EXPECT_EQ(report.count(TrustTier::kExact), 1u);
  EXPECT_EQ(report.count(TrustTier::kBounded), 1u);
  EXPECT_EQ(report.count(TrustTier::kSuspect), 1u);
  EXPECT_EQ(report.count(TrustTier::kRefuted), 1u);
  EXPECT_EQ(report.validated_events(), 4u);

  const auto refuted = report.events_at_or_below(TrustTier::kRefuted);
  ASSERT_EQ(refuted.size(), 1u);
  EXPECT_EQ(refuted[0], sim::Event::kL3Hit);
  // kSuspect threshold also catches the refuted event.
  EXPECT_EQ(report.events_at_or_below(TrustTier::kSuspect).size(), 2u);
}

TEST(TrustReport, JsonRoundTrip) {
  TrustReport report;
  report.machine = "dual";
  report.kernels = {"alu", "chase_l3_exact"};
  report.record(make_trust(sim::Event::kCycles, TrustTier::kExact, "alu"));
  report.record(make_trust(sim::Event::kL3Hit, TrustTier::kRefuted, "chase_l3_exact", 2.125));

  // The exported document survives a text round trip with every verdict.
  const util::Json doc = util::Json::parse(report.to_json().dump(2));
  EXPECT_EQ(doc.at("machine").as_string(), "dual");
  const util::JsonArray& kernels = doc.at("kernels").as_array();
  ASSERT_EQ(kernels.size(), 2u);
  EXPECT_EQ(kernels[1].as_string(), "chase_l3_exact");
  const util::Json& events = doc.at("events");
  EXPECT_EQ(events.as_object().size(), 2u);  // unvalidated events are omitted
  EXPECT_EQ(events.at("cpu.cycles").at("tier").as_string(), "exact");
  const util::Json& refuted = events.at(std::string(sim::event_name(sim::Event::kL3Hit)));
  EXPECT_EQ(refuted.at("tier").as_string(), "refuted");
  EXPECT_EQ(refuted.at("kernel").as_string(), "chase_l3_exact");
  EXPECT_DOUBLE_EQ(refuted.at("observed_ratio").as_number(), 2.125);
  EXPECT_DOUBLE_EQ(refuted.at("checks").as_number(), 1.0);
  // The JSON form is stable: a second export is byte-identical.
  EXPECT_EQ(util::Json::parse(doc.dump(2)).dump(2), report.to_json().dump(2));
}

TEST(TrustReport, ActiveReportPublishAndClear) {
  EXPECT_EQ(active_trust_report(), nullptr);
  TrustReport report;
  report.machine = "dual";
  set_active_trust_report(report);
  ASSERT_NE(active_trust_report(), nullptr);
  EXPECT_EQ(active_trust_report()->machine, "dual");
  set_active_trust_report(std::nullopt);
  EXPECT_EQ(active_trust_report(), nullptr);
}

TEST(TrustReport, RenderTableFoldsExactRows) {
  TrustReport report;
  report.machine = "dual";
  report.record(make_trust(sim::Event::kCycles, TrustTier::kExact, "alu"));
  report.record(make_trust(sim::Event::kL3Hit, TrustTier::kRefuted, "chase_l3_exact", 2.5));
  const std::string folded = render_trust_table(report, /*include_exact=*/false);
  EXPECT_NE(folded.find("1 exact events folded"), std::string::npos);
  EXPECT_NE(folded.find("refuted"), std::string::npos);
  const std::string full = render_trust_table(report, /*include_exact=*/true);
  EXPECT_EQ(full.find("folded"), std::string::npos);
  EXPECT_NE(full.find("cpu.cycles"), std::string::npos);
}

}  // namespace
}  // namespace npat::validate
