// Alert engine: configurable warn/bad rules evaluated once per monitor
// aggregation window, with hysteresis so alerts don't flap.
//
// Hysteresis is two-fold:
//  * separate raise/clear thresholds — a severity raised at `*_raise` only
//    clears once the value drops below `*_clear` (the band in between is
//    sticky in both directions);
//  * a minimum-windows dwell — a *different* target severity must persist
//    for `dwell_windows` consecutive evaluations before the committed
//    state changes, so a single outlier window never raises or clears.
//
// The first rule shipped is the ROADMAP's RMA/LMA remote-ratio rule: the
// live view's colour cues (warn at 20 % remote, bad at 50 %) promoted to
// programmatic alerts. Committed transitions are emitted as obs metrics
// (npat_alert_transitions_total, npat_alert_state) and as trace instant
// events, so they land in the same Prometheus export and Chrome trace as
// everything else.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace npat::obs {

enum class Severity : u8 { kOk = 0, kWarn = 1, kBad = 2 };

const char* severity_name(Severity severity) noexcept;

struct AlertRule {
  std::string name = "remote_ratio";
  double warn_raise = 0.20;
  double warn_clear = 0.15;
  double bad_raise = 0.50;
  double bad_clear = 0.40;
  /// Consecutive windows a new target severity must persist before the
  /// committed state transitions (1 = immediate).
  usize dwell_windows = 2;
};

/// The ROADMAP's configurable remote-to-local ratio rule, thresholds
/// matching the historical npat-top colour cues.
AlertRule remote_ratio_rule(double warn_raise = 0.20, double bad_raise = 0.50,
                            usize dwell_windows = 2);

struct AlertTransition {
  std::string rule;
  std::string subject;
  Severity from = Severity::kOk;
  Severity to = Severity::kOk;
  u64 window = 0;     // per-(rule, subject) evaluation index at commit time
  double value = 0.0;  // the value that committed the transition
};

/// Process-wide observer invoked on every committed transition, after the
/// metric/trace emission. npat::introspect hooks its flight recorder here
/// (obs sits below introspect in the DAG, so the dependency is inverted
/// through this pointer); nullptr disables. Swap only from one thread.
using TransitionObserver = void (*)(const AlertTransition&);
void set_transition_observer(TransitionObserver observer) noexcept;

class AlertEngine {
 public:
  AlertEngine() = default;

  /// Registers (or replaces) a rule. Thresholds must satisfy
  /// clear <= raise per severity and warn_raise <= bad_raise.
  void add_rule(AlertRule rule);
  bool has_rule(const std::string& name) const { return rules_.count(name) > 0; }

  /// Feeds one aggregation-window value for (`rule`, `subject`) — e.g.
  /// rule "remote_ratio", subject "node0" — and returns the committed
  /// severity after hysteresis.
  Severity evaluate(const std::string& rule, const std::string& subject, double value);

  /// Committed severity without evaluating (kOk for unseen subjects).
  Severity state(const std::string& rule, const std::string& subject) const;

  const std::vector<AlertTransition>& transitions() const noexcept { return transitions_; }

  /// Human-readable one-line-per-transition log (empty string if none).
  std::string render_transitions() const;

 private:
  struct SubjectState {
    Severity committed = Severity::kOk;
    Severity candidate = Severity::kOk;
    usize streak = 0;
    u64 windows = 0;
  };

  static Severity target_severity(const AlertRule& rule, Severity current, double value) noexcept;
  void emit(const AlertRule& rule, const std::string& subject, const AlertTransition& transition);

  std::map<std::string, AlertRule> rules_;
  std::map<std::pair<std::string, std::string>, SubjectState> states_;
  std::vector<AlertTransition> transitions_;
};

}  // namespace npat::obs
