#include "introspect/flight.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "obs/alert.hpp"
#include "obs/runtime.hpp"
#include "util/json.hpp"

namespace npat::introspect {
namespace {

TEST(FlightRecorder, RecordsInOrderWithMonotonicSequence) {
  obs::EnabledGuard on(true);
  FlightRecorder recorder(16);
  recorder.record(FlightKind::kResync, 10, "alpha", "garbage hunt");
  recorder.record(FlightKind::kTruncation, 20, "beta", "EOF mid-frame");

  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].sequence, 0u);
  EXPECT_EQ(events[0].kind, FlightKind::kResync);
  EXPECT_EQ(events[0].subject, "alpha");
  EXPECT_EQ(events[0].tick, 10u);
  EXPECT_EQ(events[1].sequence, 1u);
  EXPECT_EQ(events[1].kind, FlightKind::kTruncation);
  EXPECT_EQ(recorder.recorded(), 2u);
  EXPECT_EQ(recorder.evicted(), 0u);
}

TEST(FlightRecorder, EvictionIsBoundedAndTotalsSurviveIt) {
  obs::EnabledGuard on(true);
  FlightRecorder recorder(4);
  for (usize i = 0; i < 10; ++i) {
    recorder.record(FlightKind::kFrameDrop, i, "host", "drop", /*value=*/2);
  }
  // The ring holds only the newest 4 events...
  const auto events = recorder.snapshot();
  EXPECT_EQ(events.size(), 4u);
  EXPECT_EQ(recorder.evicted(), 6u);
  EXPECT_EQ(events.front().sequence, 6u);
  EXPECT_EQ(events.back().sequence, 9u);
  // ...but the per-kind totals are eviction-proof: reconciliation against
  // a damage ledger must stay exact after the ring wraps.
  EXPECT_EQ(recorder.total(FlightKind::kFrameDrop), 20u);
  EXPECT_EQ(recorder.total(FlightKind::kResync), 0u);
  EXPECT_EQ(recorder.recorded(), 10u);
}

TEST(FlightRecorder, DisabledRecordingIsANoOp) {
  FlightRecorder recorder(8);
  {
    obs::EnabledGuard off(false);
    recorder.record(FlightKind::kResync, 1, "host", "ignored");
  }
  EXPECT_EQ(recorder.snapshot().size(), 0u);
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_EQ(recorder.total(FlightKind::kResync), 0u);
}

TEST(FlightRecorder, ToJsonGolden) {
  obs::EnabledGuard on(true);
  FlightRecorder recorder(4);
  recorder.record(FlightKind::kResync, 5, "alpha", "storm", /*value=*/3);
  recorder.record(FlightKind::kAlertRaise, 6, "remote_ratio:node0", "ok->warn");
  // Pins the dump schema (keys are serialized sorted): capacity, events
  // (oldest first), evicted, recorded, and the non-zero per-kind totals.
  EXPECT_EQ(
      recorder.to_json().dump(),
      "{\"capacity\":4,"
      "\"events\":["
      "{\"detail\":\"storm\",\"kind\":\"resync\",\"seq\":0,\"subject\":\"alpha\","
      "\"tick\":5,\"value\":3},"
      "{\"detail\":\"ok->warn\",\"kind\":\"alert_raise\",\"seq\":1,"
      "\"subject\":\"remote_ratio:node0\",\"tick\":6,\"value\":1}],"
      "\"evicted\":0,\"recorded\":2,"
      "\"totals\":{\"alert_raise\":1,\"resync\":3}}");
}

TEST(FlightRecorder, DumpWritesParseableJson) {
  obs::EnabledGuard on(true);
  FlightRecorder recorder(8);
  recorder.record(FlightKind::kEpochReset, 42, "host-a", "ledger adopted epoch 2");
  const std::string path = "npat_flight_test_dump.json";
  recorder.dump(path);
  const util::Json parsed = util::Json::parse(util::read_file(path));
  EXPECT_DOUBLE_EQ(parsed.at("recorded").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(parsed.at("totals").at("epoch_reset").as_number(), 1.0);
  EXPECT_EQ(parsed.at("events").as_array().size(), 1u);
  EXPECT_EQ(parsed.at("events").as_array()[0].at("kind").as_string(), "epoch_reset");
  std::remove(path.c_str());
}

TEST(FlightRecorder, ResetClearsRingAndTotals) {
  obs::EnabledGuard on(true);
  FlightRecorder recorder(4);
  recorder.record(FlightKind::kNote, 1, "x", "y");
  recorder.reset();
  EXPECT_EQ(recorder.snapshot().size(), 0u);
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_EQ(recorder.total(FlightKind::kNote), 0u);
}

TEST(FlightKindNames, AreStableIdentifiers) {
  EXPECT_STREQ(flight_kind_name(FlightKind::kResync), "resync");
  EXPECT_STREQ(flight_kind_name(FlightKind::kReplayEviction), "replay_eviction");
  EXPECT_STREQ(flight_kind_name(FlightKind::kLivenessChange), "liveness_change");
  EXPECT_STREQ(flight_kind_name(FlightKind::kNote), "note");
}

TEST(AlertHook, CommittedTransitionsLandInTheFlightRing) {
  obs::EnabledGuard on(true);
  install_alert_hook();

  const u64 raises_before = flight().total(FlightKind::kAlertRaise);
  const u64 clears_before = flight().total(FlightKind::kAlertClear);

  // A live engine commits a raise, then a clear, for one subject.
  obs::AlertEngine engine;
  engine.add_rule(obs::remote_ratio_rule(0.20, 0.50, /*dwell_windows=*/1));
  engine.evaluate("remote_ratio", "node1", 0.30);
  engine.evaluate("remote_ratio", "node1", 0.0);
  ASSERT_EQ(engine.transitions().size(), 2u);

  EXPECT_EQ(flight().total(FlightKind::kAlertRaise), raises_before + 1);
  EXPECT_EQ(flight().total(FlightKind::kAlertClear), clears_before + 1);

  // The most recent two events carry the joined identity and direction.
  const auto events = flight().snapshot();
  ASSERT_GE(events.size(), 2u);
  const FlightEvent& last = events.back();
  EXPECT_EQ(last.kind, FlightKind::kAlertClear);
  EXPECT_EQ(last.subject, "remote_ratio:node1");
  EXPECT_EQ(last.detail, "warn->ok");
  EXPECT_EQ(last.tick, engine.transitions().back().window);
}

}  // namespace
}  // namespace npat::introspect
