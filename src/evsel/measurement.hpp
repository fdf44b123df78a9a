// A Measurement is EvSel's unit of data: one program configuration,
// measured over several identically-configured repetitions, with (ideally)
// every platform event recorded per repetition.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "perf/session.hpp"
#include "sim/events.hpp"
#include "util/json.hpp"
#include "util/types.hpp"
#include "validate/trust.hpp"

namespace npat::evsel {

class Measurement {
 public:
  Measurement() = default;
  explicit Measurement(std::string label) : label_(std::move(label)) {}

  const std::string& label() const noexcept { return label_; }
  void set_label(std::string label) { label_ = std::move(label); }

  /// Named input parameters of the run (e.g. {"threads", 8}); regressions
  /// correlate these with the events.
  void set_parameter(const std::string& name, double value) { parameters_[name] = value; }
  double parameter(const std::string& name) const;
  const std::map<std::string, double>& parameters() const noexcept { return parameters_; }

  /// Appends the values of one repetition (possibly a partial event set —
  /// batched collection adds one group at a time).
  void add_values(const std::vector<perf::EventValue>& values);

  bool has(sim::Event event) const;
  /// Per-repetition samples for an event (empty if never measured).
  const std::vector<double>& samples(sim::Event event) const;
  double mean(sim::Event event) const;
  usize repetitions(sim::Event event) const { return samples(event).size(); }

  /// Events with at least one recorded sample, in registry order.
  std::vector<sim::Event> recorded_events() const;

  /// True if every recorded sample of the event is zero (EvSel grays those
  /// rows out).
  bool all_zero(sim::Event event) const;

  /// Runs thrown out by the collector's MAD screen and re-measured (see
  /// CollectOptions::quarantine_mad_k). Zero means every repetition passed
  /// on the first try; anything higher is a degraded-confidence signal
  /// reported next to the repetition counts feeding the t-tests.
  void note_quarantined(usize runs) { quarantined_runs_ += runs; }
  usize quarantined_runs() const noexcept { return quarantined_runs_; }

  /// Outlier runs the MAD screen flagged but could not re-measure because
  /// the collector's retry budget ran dry. These runs stay in the sample
  /// set, so a nonzero count means the t-test inputs still contain known
  /// outliers — a stronger degradation signal than a quarantine that was
  /// successfully re-measured.
  void note_retry_exhausted(usize runs) { retry_exhausted_runs_ += runs; }
  usize retry_exhausted_runs() const noexcept { return retry_exhausted_runs_; }

  /// Copies per-event trust tiers from a validation run (see
  /// validate::TrustReport). Only events this measurement recorded are
  /// annotated; unlisted events stay kUnvalidated.
  void annotate_trust(const validate::TrustReport& report);
  validate::TrustTier trust(sim::Event event) const;
  bool has_trust_annotations() const noexcept { return !trust_.empty(); }

  util::Json to_json() const;

 private:
  std::string label_;
  std::map<std::string, double> parameters_;
  std::map<sim::Event, std::vector<double>> values_;
  std::map<sim::Event, validate::TrustTier> trust_;
  usize quarantined_runs_ = 0;
  usize retry_exhausted_runs_ = 0;
};

}  // namespace npat::evsel
