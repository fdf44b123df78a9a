#include "obs/alert.hpp"

#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"

namespace npat::obs {

const char* severity_name(Severity severity) noexcept {
  switch (severity) {
    case Severity::kWarn:
      return "warn";
    case Severity::kBad:
      return "bad";
    case Severity::kOk:
      break;
  }
  return "ok";
}

AlertRule remote_ratio_rule(double warn_raise, double bad_raise, usize dwell_windows) {
  AlertRule rule;
  rule.name = "remote_ratio";
  rule.warn_raise = warn_raise;
  rule.warn_clear = warn_raise * 0.75;
  rule.bad_raise = bad_raise;
  rule.bad_clear = bad_raise * 0.8;
  rule.dwell_windows = dwell_windows;
  return rule;
}

void AlertEngine::add_rule(AlertRule rule) {
  NPAT_CHECK_MSG(!rule.name.empty(), "alert rule needs a name");
  NPAT_CHECK_MSG(rule.warn_clear <= rule.warn_raise && rule.bad_clear <= rule.bad_raise,
                 "alert clear thresholds must not exceed their raise thresholds");
  NPAT_CHECK_MSG(rule.warn_raise <= rule.bad_raise, "warn must raise at or below bad");
  NPAT_CHECK_MSG(rule.dwell_windows >= 1, "dwell must be at least one window");
  rules_[rule.name] = std::move(rule);
}

Severity AlertEngine::target_severity(const AlertRule& rule, Severity current,
                                      double value) noexcept {
  switch (current) {
    case Severity::kOk:
      if (value >= rule.bad_raise) return Severity::kBad;
      if (value >= rule.warn_raise) return Severity::kWarn;
      return Severity::kOk;
    case Severity::kWarn:
      if (value >= rule.bad_raise) return Severity::kBad;
      if (value < rule.warn_clear) return Severity::kOk;
      return Severity::kWarn;
    case Severity::kBad:
      if (value >= rule.bad_clear) return Severity::kBad;
      // Bad has cleared; warn (raised on the way up) stays until its own
      // clear threshold is crossed.
      if (value >= rule.warn_clear) return Severity::kWarn;
      return Severity::kOk;
  }
  return Severity::kOk;
}

Severity AlertEngine::evaluate(const std::string& rule_name, const std::string& subject,
                               double value) {
  const auto rule_it = rules_.find(rule_name);
  NPAT_CHECK_MSG(rule_it != rules_.end(), "unknown alert rule");
  const AlertRule& rule = rule_it->second;

  SubjectState& state = states_[{rule_name, subject}];
  ++state.windows;

  const Severity target = target_severity(rule, state.committed, value);
  if (target == state.committed) {
    state.candidate = state.committed;
    state.streak = 0;
    return state.committed;
  }
  if (target == state.candidate) {
    ++state.streak;
  } else {
    state.candidate = target;
    state.streak = 1;
  }
  if (state.streak < rule.dwell_windows) return state.committed;

  AlertTransition transition;
  transition.rule = rule_name;
  transition.subject = subject;
  transition.from = state.committed;
  transition.to = target;
  transition.window = state.windows;
  transition.value = value;
  state.committed = target;
  state.candidate = target;
  state.streak = 0;
  emit(rule, subject, transition);
  transitions_.push_back(std::move(transition));
  return state.committed;
}

Severity AlertEngine::state(const std::string& rule, const std::string& subject) const {
  const auto it = states_.find({rule, subject});
  return it == states_.end() ? Severity::kOk : it->second.committed;
}

namespace {
TransitionObserver g_transition_observer = nullptr;
}  // namespace

void set_transition_observer(TransitionObserver observer) noexcept {
  g_transition_observer = observer;
}

void AlertEngine::emit(const AlertRule& rule, const std::string& subject,
                       const AlertTransition& transition) {
  metrics()
      .counter(util::format("npat_alert_transitions_total{rule=\"%s\",to=\"%s\"}",
                            rule.name.c_str(), severity_name(transition.to)),
               "Committed alert state transitions")
      .add(1);
  metrics()
      .gauge(util::format("npat_alert_state{rule=\"%s\",subject=\"%s\"}", rule.name.c_str(),
                          subject.c_str()),
             "Current alert severity (0=ok 1=warn 2=bad)")
      .set(static_cast<double>(transition.to));
  tracer().instant(
      "alert." + rule.name,
      util::format("%s %s->%s value=%.4f window=%llu", subject.c_str(),
                   severity_name(transition.from), severity_name(transition.to), transition.value,
                   static_cast<unsigned long long>(transition.window)));
  if (g_transition_observer != nullptr) g_transition_observer(transition);
}

std::string AlertEngine::render_transitions() const {
  std::string out;
  for (const AlertTransition& t : transitions_) {
    out += util::format("[%s] %s: %s -> %s (value %.3f, window %llu)\n", t.rule.c_str(),
                        t.subject.c_str(), severity_name(t.from), severity_name(t.to), t.value,
                        static_cast<unsigned long long>(t.window));
  }
  return out;
}

}  // namespace npat::obs
