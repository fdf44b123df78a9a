// Flight recorder: a fixed-size ring of structured pipeline events — the
// rare, narratively important moments (resyncs, truncations, epoch
// resets, replay evictions, orphan holds, alert raises/clears, redials)
// that histograms average away. The ring is cheap enough to leave on in
// production: recording is one mutex-guarded deque push, and the ring is
// bounded so a damage storm costs memory proportional to capacity, never
// to damage. The whole ring dumps to JSON on demand, on fatal error (via
// install_terminate_dump) and from chaos-test failures, so the last N
// events before a crash ride along with the core dump.
//
// Totals are kept per event kind *outside* the ring (eviction-proof), so
// reconciliation against the collector's damage ledger stays exact even
// after the ring wraps.
#pragma once

#include <array>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/types.hpp"

namespace npat::obs {
struct AlertTransition;  // alert.hpp; hooked via obs::set_transition_observer
}  // namespace npat::obs

namespace npat::introspect {

enum class FlightKind : u8 {
  kResync = 0,        ///< decoder discarded garbage hunting for frame magic
  kFrameDrop,         ///< decoder dropped a frame (CRC/malformed/truncated)
  kTruncation,        ///< incomplete frame flushed at end of stream
  kUnexpectedFrame,   ///< valid frame the collector could not merge
  kEpochReset,        ///< delivery ledger restarted on a new probe epoch
  kReplayEviction,    ///< supervised probe evicted an unacked frame
  kOrphanHeld,        ///< task sample row held awaiting its TaskTable
  kOrphanAttributed,  ///< held row attributed after a late TaskTable
  kAlertRaise,        ///< alert engine committed a severity increase
  kAlertClear,        ///< alert engine committed a severity decrease
  kReattach,          ///< collector reattached a probe's transport
  kDial,              ///< supervised probe dialed (or redialed) its link
  kReconnect,         ///< supervised probe completed a resume handshake
  kLivenessChange,    ///< probe moved between live/stale/dead
  kNote,              ///< free-form marker (tests, tools)
};

inline constexpr usize kFlightKindCount = static_cast<usize>(FlightKind::kNote) + 1;

const char* flight_kind_name(FlightKind kind) noexcept;

struct FlightEvent {
  u64 sequence = 0;  ///< monotonic id assigned by the recorder
  Cycles tick = 0;   ///< caller-supplied clock (collector or probe cycles)
  FlightKind kind = FlightKind::kNote;
  std::string subject;  ///< who: host id, "rule:subject", probe name
  std::string detail;   ///< free-form context, one short clause
  u64 value = 1;        ///< occurrences this event accounts for
};

class FlightRecorder {
 public:
  explicit FlightRecorder(usize capacity = 1024);

  /// Records one event (no-op while obs::enabled() is false, like every
  /// other observability sink). `value` is the occurrence count the event
  /// stands for — collector-side recording batches per poll, so one event
  /// may account for several resyncs.
  void record(FlightKind kind, Cycles tick, std::string subject, std::string detail,
              u64 value = 1);

  /// Occurrences (sum of `value`) ever recorded for `kind`, including
  /// events the ring has since evicted — the reconciliation surface.
  u64 total(FlightKind kind) const;
  u64 recorded() const;  ///< events ever recorded
  u64 evicted() const;   ///< events pushed out by the capacity bound
  usize capacity() const { return capacity_; }

  std::vector<FlightEvent> snapshot() const;

  /// {"capacity":…,"recorded":…,"evicted":…,"totals":{…},"events":[…]}
  /// with events oldest-first; totals include only non-zero kinds.
  util::Json to_json() const;

  /// Writes to_json() (2-space indent, trailing newline) to `path`.
  void dump(const std::string& path) const;

  void reset();

 private:
  mutable std::mutex mutex_;
  usize capacity_;
  std::deque<FlightEvent> ring_;
  u64 next_sequence_ = 0;
  u64 evicted_ = 0;
  std::array<u64, kFlightKindCount> totals_{};
};

/// The process-wide recorder every pipeline stage records into.
FlightRecorder& flight();

/// Hooks the alert engine's transition observer so committed raises and
/// clears land in the flight ring (kAlertRaise/kAlertClear, subject
/// "rule:subject", tick = evaluation window). Idempotent.
void install_alert_hook();

/// Installs a std::terminate handler that dumps the flight ring to `path`
/// before chaining to the previous handler — the "on fatal error" dump.
/// util::check sits below introspect in the DAG, so an NPAT_CHECK failure
/// escaping to terminate is caught here rather than at the throw site.
void install_terminate_dump(std::string path);

}  // namespace npat::introspect
