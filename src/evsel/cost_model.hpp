// The second step of the paper's two-step strategy (§III-B): the
// indicator-to-cost analysis. A cost model is trained on measurements
// (indicator counters → observed cost, e.g. cycles) via multi-feature
// least squares, and then predicts costs for *new* indicator vectors —
// including vectors extrapolated across workload sizes or transferred
// from another machine, the two use cases the strategy motivates.
//
// Feature selection follows the paper's guidance: indicators that do not
// significantly change across the training set "should be considered for
// removal" (near-constant features are dropped before fitting), and the
// model reports per-feature weights so redundant indicators are visible.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "evsel/measurement.hpp"
#include "sim/events.hpp"

namespace npat::evsel {

struct CostModelOptions {
  /// The cost to predict (execution time by default; the paper also names
  /// wattage as a cost-relevant indicator class).
  sim::Event cost = sim::Event::kCycles;
  /// Candidate indicator events; empty = every recorded non-cost event.
  std::vector<sim::Event> indicators;
  /// Features whose coefficient of variation across the training set is
  /// below this are near-constant and dropped (§III-B.1).
  double min_coefficient_of_variation = 0.01;
  /// Fit an intercept term (fixed costs).
  bool intercept = true;
};

class CostModel {
 public:
  struct Feature {
    sim::Event event;
    double weight = 0.0;  // cost units per event occurrence
  };

  /// Trains on >= features+2 measurements, each holding the cost event and
  /// the indicator events. Returns nullopt when the system is degenerate
  /// (too few samples, rank-deficient features). Throws CheckError, naming
  /// the event, when a requested indicator or the cost event was never
  /// measured in some training measurement — silently substituting zeros
  /// would fit a model to fabricated data.
  static std::optional<CostModel> train(const std::vector<Measurement>& training,
                                        const CostModelOptions& options = {});

  /// Predicted cost for a measurement's mean indicator vector. Throws
  /// CheckError, naming the event, when the measurement lacks one of the
  /// model's features.
  double predict(const Measurement& measurement) const;

  /// R² of the model on its training set.
  double training_r_squared() const noexcept { return r_squared_; }
  double intercept() const noexcept { return intercept_; }
  const std::vector<Feature>& features() const noexcept { return features_; }
  sim::Event cost_event() const noexcept { return cost_; }
  /// Indicators dropped as near-constant (reported, per the paper).
  const std::vector<sim::Event>& dropped() const noexcept { return dropped_; }

  /// Human-readable weight table.
  std::string describe() const;

 private:
  sim::Event cost_ = sim::Event::kCycles;
  std::vector<Feature> features_;
  std::vector<sim::Event> dropped_;
  double intercept_ = 0.0;
  double r_squared_ = 0.0;
};

}  // namespace npat::evsel
