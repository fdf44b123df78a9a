// Trust tiers for hardware event counters, following Röhl et al.'s event
// validation discipline and CounterPoint's refutation methodology: an event
// is only as trustworthy as the known-truth kernels it survived. The
// validation harness (validate/harness.hpp) runs microkernels with
// analytically exact expected counts and distills the outcome into a
// TrustReport every downstream consumer can consult:
//
//   exact    — matched an analytically exact expectation on every kernel
//   bounded  — inside every analytic tolerance band, but only band-checked
//   suspect  — outside a band, within the refutation factor (drifting)
//   refuted  — off by more than the refutation factor on some kernel
//
// This header is deliberately dependency-light (sim + util only) so that
// evsel, advisor and the monitor views can annotate their outputs with
// tiers without depending on the harness that produced them.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "sim/events.hpp"
#include "util/json.hpp"
#include "util/types.hpp"

namespace npat::validate {

/// Ordered by increasing distrust; `worse` picks the higher ordinal.
enum class TrustTier : u8 {
  kExact = 0,
  kBounded,
  kSuspect,
  kRefuted,
  /// No kernel in the suite produced an expectation for the event (or no
  /// suite ran at all). Consumers treat unvalidated like bounded — trust
  /// by default, but visibly so.
  kUnvalidated,
};

const char* tier_name(TrustTier tier);
/// Parses a tier_name(); throws util::CheckError naming the input on
/// unknown tiers (report files must never round-trip silently wrong).
TrustTier tier_from_name(const std::string& name);

constexpr TrustTier worse(TrustTier a, TrustTier b) noexcept {
  return static_cast<u8>(a) >= static_cast<u8>(b) ? a : b;
}

/// True for tiers the consumers degrade on (suspect / refuted).
constexpr bool below_bounded(TrustTier tier) noexcept {
  return tier == TrustTier::kSuspect || tier == TrustTier::kRefuted;
}

/// One event's verdict with the deciding evidence: the kernel whose check
/// drove the tier, and the measured/expected ratio observed there.
struct EventTrust {
  sim::Event event = sim::Event::kCycles;
  TrustTier tier = TrustTier::kUnvalidated;
  std::string kernel;          ///< deciding kernel (worst surviving check)
  double observed_ratio = 1.0; ///< measured / expected of the deciding check
  double measured = 0.0;
  double expected = 0.0;       ///< band midpoint for bounded checks
  u32 checks = 0;              ///< expectations evaluated across the suite
};

/// Persistent per-event trust table. `record` merges evidence: the worst
/// tier wins and keeps its kernel/ratio as the citation; check counts sum.
class TrustReport {
 public:
  /// Human description of the validated machine (preset/model name).
  std::string machine;
  /// Kernels whose checks fed the report (skipped ones excluded).
  std::vector<std::string> kernels;

  void record(const EventTrust& evidence);

  TrustTier tier(sim::Event event) const;
  /// Deciding evidence; nullptr when the event was never checked.
  const EventTrust* evidence(sim::Event event) const;
  /// All recorded rows in registry order.
  std::vector<EventTrust> rows() const;

  usize count(TrustTier tier) const;
  /// Registry events with at least one check (any tier).
  usize validated_events() const;
  /// True when every registry event is exact or bounded — the acceptance
  /// bar for an unperturbed simulator.
  bool all_trusted() const;
  std::vector<sim::Event> events_at_or_below(TrustTier tier) const;

  util::Json to_json() const;

 private:
  std::array<std::optional<EventTrust>, sim::kEventCount> rows_{};
};

/// Tier table for terminal panes (npat_top --trust, npat_validate).
/// `include_exact` folds fully-exact rows into a summary line when false.
std::string render_trust_table(const TrustReport& report, bool include_exact = true);

/// Process-global report consulted by evsel::Collector/compare and the
/// advisor when no report is passed explicitly (graceful degradation is
/// opt-in per process: nothing degrades until a harness run publishes).
/// Not thread-safe: publish before spawning measurement threads.
void set_active_trust_report(std::optional<TrustReport> report);
const TrustReport* active_trust_report();

}  // namespace npat::validate
