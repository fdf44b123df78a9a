#include "introspect/flight.hpp"

#include <exception>
#include <utility>

#include "obs/alert.hpp"
#include "obs/runtime.hpp"
#include "util/check.hpp"

namespace npat::introspect {

const char* flight_kind_name(FlightKind kind) noexcept {
  switch (kind) {
    case FlightKind::kResync: return "resync";
    case FlightKind::kFrameDrop: return "frame_drop";
    case FlightKind::kTruncation: return "truncation";
    case FlightKind::kUnexpectedFrame: return "unexpected_frame";
    case FlightKind::kEpochReset: return "epoch_reset";
    case FlightKind::kReplayEviction: return "replay_eviction";
    case FlightKind::kOrphanHeld: return "orphan_held";
    case FlightKind::kOrphanAttributed: return "orphan_attributed";
    case FlightKind::kAlertRaise: return "alert_raise";
    case FlightKind::kAlertClear: return "alert_clear";
    case FlightKind::kReattach: return "reattach";
    case FlightKind::kDial: return "dial";
    case FlightKind::kReconnect: return "reconnect";
    case FlightKind::kLivenessChange: return "liveness_change";
    case FlightKind::kNote: return "note";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(usize capacity) : capacity_(capacity) {
  NPAT_CHECK_MSG(capacity > 0, "flight recorder needs a non-zero ring");
}

void FlightRecorder::record(FlightKind kind, Cycles tick, std::string subject,
                            std::string detail, u64 value) {
  if (!obs::enabled()) return;
  std::lock_guard lock(mutex_);
  FlightEvent event;
  event.sequence = next_sequence_++;
  event.tick = tick;
  event.kind = kind;
  event.subject = std::move(subject);
  event.detail = std::move(detail);
  event.value = value;
  ring_.push_back(std::move(event));
  totals_[static_cast<usize>(kind)] += value;
  while (ring_.size() > capacity_) {
    ring_.pop_front();
    ++evicted_;
  }
}

u64 FlightRecorder::total(FlightKind kind) const {
  std::lock_guard lock(mutex_);
  return totals_[static_cast<usize>(kind)];
}

u64 FlightRecorder::recorded() const {
  std::lock_guard lock(mutex_);
  return next_sequence_;
}

u64 FlightRecorder::evicted() const {
  std::lock_guard lock(mutex_);
  return evicted_;
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  std::lock_guard lock(mutex_);
  return {ring_.begin(), ring_.end()};
}

util::Json FlightRecorder::to_json() const {
  std::lock_guard lock(mutex_);
  util::JsonObject doc;
  doc["capacity"] = static_cast<u64>(capacity_);
  doc["recorded"] = next_sequence_;
  doc["evicted"] = evicted_;
  util::JsonObject totals;
  for (usize i = 0; i < kFlightKindCount; ++i) {
    if (totals_[i] > 0) totals[flight_kind_name(static_cast<FlightKind>(i))] = totals_[i];
  }
  doc["totals"] = std::move(totals);
  util::JsonArray events;
  for (const FlightEvent& event : ring_) {
    util::JsonObject row;
    row["seq"] = event.sequence;
    row["tick"] = event.tick;
    row["kind"] = flight_kind_name(event.kind);
    row["subject"] = event.subject;
    row["detail"] = event.detail;
    row["value"] = event.value;
    events.emplace_back(std::move(row));
  }
  doc["events"] = std::move(events);
  return util::Json(std::move(doc));
}

void FlightRecorder::dump(const std::string& path) const {
  util::write_file(path, to_json().dump(2) + "\n");
}

void FlightRecorder::reset() {
  std::lock_guard lock(mutex_);
  ring_.clear();
  next_sequence_ = 0;
  evicted_ = 0;
  totals_.fill(0);
}

FlightRecorder& flight() {
  static FlightRecorder recorder;
  return recorder;
}

namespace {

void record_alert_transition(const obs::AlertTransition& transition) {
  const bool raise = static_cast<u8>(transition.to) > static_cast<u8>(transition.from);
  flight().record(raise ? FlightKind::kAlertRaise : FlightKind::kAlertClear, transition.window,
                  transition.rule + ":" + transition.subject,
                  std::string(obs::severity_name(transition.from)) + "->" +
                      obs::severity_name(transition.to));
}

std::string g_terminate_dump_path;           // set once before installing
std::terminate_handler g_previous = nullptr;

[[noreturn]] void terminate_with_dump() {
  // Best effort: if the dump itself throws we are already terminating.
  try {
    flight().dump(g_terminate_dump_path);
  } catch (...) {
  }
  if (g_previous != nullptr) g_previous();
  std::abort();
}

}  // namespace

void install_alert_hook() { obs::set_transition_observer(&record_alert_transition); }

void install_terminate_dump(std::string path) {
  g_terminate_dump_path = std::move(path);
  const std::terminate_handler previous = std::set_terminate(&terminate_with_dump);
  if (previous != &terminate_with_dump) g_previous = previous;
}

}  // namespace npat::introspect
