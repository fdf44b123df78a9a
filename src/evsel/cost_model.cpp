#include "evsel/cost_model.hpp"

#include <cmath>

#include "linalg/solve.hpp"
#include "stats/descriptive.hpp"
#include "stats/regression.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace npat::evsel {

std::optional<CostModel> CostModel::train(const std::vector<Measurement>& training,
                                          const CostModelOptions& options) {
  if (training.size() < 2) return std::nullopt;

  // Candidate features: explicitly given, or every event recorded in the
  // first measurement minus the cost itself.
  std::vector<sim::Event> candidates = options.indicators;
  if (candidates.empty()) {
    for (const sim::Event event : training.front().recorded_events()) {
      if (event != options.cost) candidates.push_back(event);
    }
  } else {
    // Explicitly requested indicators must exist in every training
    // measurement — mean() would otherwise quietly return 0.0 and the fit
    // would absorb a fabricated column.
    for (const sim::Event event : candidates) {
      for (const auto& m : training) {
        NPAT_CHECK_MSG(m.has(event),
                       std::string("cost model indicator never measured in '") + m.label() +
                           "': " + std::string(sim::event_name(event)));
      }
    }
  }
  for (const auto& m : training) {
    NPAT_CHECK_MSG(m.has(options.cost),
                   std::string("cost event never measured in '") + m.label() +
                       "': " + std::string(sim::event_name(options.cost)));
  }

  CostModel model;
  model.cost_ = options.cost;

  // Build per-feature mean columns and drop near-constant features.
  std::vector<sim::Event> kept;
  std::vector<std::vector<double>> columns;
  for (const sim::Event event : candidates) {
    std::vector<double> column;
    column.reserve(training.size());
    for (const auto& m : training) column.push_back(m.mean(event));
    const double mean = stats::mean(column);
    const double sd = stats::stddev(column);
    const double cv = mean != 0.0 ? sd / std::fabs(mean) : (sd > 0.0 ? 1.0 : 0.0);
    if (cv < options.min_coefficient_of_variation) {
      model.dropped_.push_back(event);
      continue;
    }
    kept.push_back(event);
    columns.push_back(std::move(column));
  }
  if (kept.empty()) return std::nullopt;

  const usize n = training.size();
  const usize p = kept.size() + (options.intercept ? 1 : 0);
  if (n < p + 1) return std::nullopt;

  linalg::Matrix design(n, p);
  linalg::Vector cost(n);
  for (usize i = 0; i < n; ++i) {
    usize col = 0;
    if (options.intercept) design(i, col++) = 1.0;
    for (usize f = 0; f < kept.size(); ++f) design(i, col++) = columns[f][i];
    cost[i] = training[i].mean(options.cost);
  }

  const auto solution = linalg::least_squares(design, cost);
  if (!solution) return std::nullopt;

  usize col = 0;
  if (options.intercept) model.intercept_ = solution->beta[col++];
  for (const sim::Event event : kept) {
    model.features_.push_back(Feature{event, solution->beta[col++]});
  }

  std::vector<double> predicted(n);
  for (usize i = 0; i < n; ++i) {
    double value = model.intercept_;
    usize f = 0;
    for (const sim::Event event : kept) {
      (void)event;
      value += model.features_[f].weight * design(i, options.intercept ? f + 1 : f);
      ++f;
    }
    predicted[i] = value;
  }
  model.r_squared_ = stats::r_squared(cost, predicted).value_or(0.0);
  return model;
}

double CostModel::predict(const Measurement& measurement) const {
  double value = intercept_;
  for (const auto& feature : features_) {
    NPAT_CHECK_MSG(measurement.has(feature.event),
                   std::string("cost model feature missing from measurement '") +
                       measurement.label() + "': " +
                       std::string(sim::event_name(feature.event)));
    value += feature.weight * measurement.mean(feature.event);
  }
  return value;
}

std::string CostModel::describe() const {
  util::Table table({"indicator", "weight (cost/event)"});
  table.set_title("indicator-to-cost model for " +
                  std::string(sim::event_name(cost_)) +
                  util::format(" (training R² = %.4f)", r_squared_));
  table.set_align(1, util::Align::kRight);
  table.add_row({"(intercept)", util::compact_double(intercept_, 4)});
  for (const auto& feature : features_) {
    table.add_row({std::string(sim::event_name(feature.event)),
                   util::compact_double(feature.weight, 6)});
  }
  std::string out = table.render();
  if (!dropped_.empty()) {
    out += "dropped near-constant indicators:";
    for (const sim::Event event : dropped_) {
      out += " " + std::string(sim::event_name(event));
    }
    out += "\n";
  }
  return out;
}

}  // namespace npat::evsel
