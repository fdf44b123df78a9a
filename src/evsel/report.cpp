#include "evsel/report.hpp"

#include <cmath>

#include "obs/obs.hpp"
#include "stats/descriptive.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace npat::evsel {

namespace {

using util::Style;

std::string confidence_text(double confidence) {
  if (confidence >= 0.9995) return ">99.9 %";
  return util::format("%.1f %%", confidence * 100.0);
}

/// Icon cues from the EvSel GUI: significant increase, significant
/// decrease, or no significant change.
util::Cell significance_cell(const ComparisonRow& row, double alpha) {
  if (row.trust_quarantined) return {"⊘ quarantined", Style::kRed};
  if (row.zero_in_both) return {"0", Style::kDim};
  if (!row.significant(alpha)) return {"·", Style::kNone};
  const bool increase = row.test.mean_delta > 0;
  return {std::string(increase ? "▲ " : "▼ ") + confidence_text(row.test.confidence),
          increase ? Style::kRed : Style::kGreen};
}

util::Cell trust_cell(validate::TrustTier tier) {
  Style style = Style::kNone;
  if (tier == validate::TrustTier::kRefuted) style = Style::kRed;
  if (tier == validate::TrustTier::kSuspect) style = Style::kYellow;
  if (tier == validate::TrustTier::kExact) style = Style::kDim;
  return {validate::tier_name(tier), style};
}

std::string delta_text(const ComparisonRow& row) {
  if (row.test.mean_a == 0.0 && row.test.mean_b != 0.0) return "new";
  if (row.test.mean_a == 0.0) return "—";
  const double ratio = row.test.relative_delta;
  if (std::fabs(ratio) >= 99.5) {
    return util::format("x%.0f", ratio + 1.0);
  }
  return util::percent_delta(ratio);
}

}  // namespace

std::string render_comparison(const Comparison& comparison, const ReportOptions& options) {
  NPAT_OBS_SPAN("evsel.report");
  bool show_trust = false;
  for (const auto& row : comparison.rows) {
    if (row.trust != validate::TrustTier::kUnvalidated) show_trust = true;
  }
  std::vector<std::string> headers = {"event", comparison.label_a, comparison.label_b,
                                      "Δ", "significance"};
  if (show_trust) headers.push_back("trust");
  if (options.show_descriptions) headers.push_back("description");
  util::Table table(headers);
  std::string title = "EvSel comparison: " + comparison.label_a + " vs " + comparison.label_b;
  if (comparison.quarantined_a + comparison.quarantined_b > 0) {
    title += util::format(" (quarantined runs: %zu vs %zu)", comparison.quarantined_a,
                          comparison.quarantined_b);
  }
  if (comparison.retry_exhausted_a + comparison.retry_exhausted_b > 0) {
    title += util::format(" (retry budget exhausted, outliers kept: %zu vs %zu)",
                          comparison.retry_exhausted_a, comparison.retry_exhausted_b);
  }
  if (comparison.refuted_quarantined > 0) {
    title += util::format(" [%zu refuted event%s excluded from testing]",
                          comparison.refuted_quarantined,
                          comparison.refuted_quarantined == 1 ? "" : "s");
  }
  table.set_title(std::move(title));
  table.set_align(1, util::Align::kRight);
  table.set_align(2, util::Align::kRight);
  table.set_align(3, util::Align::kRight);

  usize rendered = 0;
  for (const auto& row : comparison.rows) {
    // Quarantined rows always render — hiding them would make a trust
    // quarantine look like "no significant change".
    if (!options.include_all_events && !row.significant(options.alpha) &&
        !row.trust_quarantined) {
      continue;
    }
    if (options.max_rows > 0 && rendered >= options.max_rows) break;
    ++rendered;

    const auto& info = sim::event_info(row.event);
    const Style row_style = row.zero_in_both ? Style::kDim : Style::kNone;
    std::vector<util::Cell> cells;
    cells.push_back({std::string(info.name), row_style});
    cells.push_back({util::si_scaled(row.test.mean_a), row_style});
    cells.push_back({util::si_scaled(row.test.mean_b), row_style});
    cells.push_back({delta_text(row), row_style});
    cells.push_back(significance_cell(row, options.alpha));
    if (show_trust) cells.push_back(trust_cell(row.trust));
    if (options.show_descriptions) {
      std::string desc(info.description);
      if (desc.size() > 56) desc = desc.substr(0, 53) + "...";
      cells.push_back({desc, Style::kDim});
    }
    table.add_styled_row(std::move(cells));
  }
  if (rendered == 0) {
    std::vector<util::Cell> cells(headers.size(), util::Cell{"", Style::kNone});
    cells[0] = {"(no significant differences)", Style::kDim};
    table.add_styled_row(std::move(cells));
  }
  return table.render();
}

std::string render_correlations(const SweepResult& result, double min_abs_r,
                                const ReportOptions& options) {
  std::vector<std::string> headers = {"event", "fit", "function", "R"};
  if (options.show_descriptions) headers.push_back("description");
  util::Table table(headers);
  table.set_title("EvSel correlations against '" + result.parameter_name + "'");
  table.set_align(3, util::Align::kRight);

  usize rendered = 0;
  for (const auto& row : result.strongest(min_abs_r)) {
    if (options.max_rows > 0 && rendered >= options.max_rows) break;
    ++rendered;
    const auto& info = sim::event_info(row.event);
    const Style color = std::fabs(row.best.r) >= 0.95
                            ? (row.best.r > 0 ? Style::kRed : Style::kBlue)
                            : Style::kNone;
    std::vector<util::Cell> cells;
    cells.push_back({std::string(info.name), Style::kNone});
    cells.push_back({stats::fit_kind_name(row.best.kind), Style::kNone});
    cells.push_back({row.best.formula(3), Style::kNone});
    cells.push_back({util::format("%+.4f", row.best.r), color});
    if (options.show_descriptions) {
      std::string desc(info.description);
      if (desc.size() > 48) desc = desc.substr(0, 45) + "...";
      cells.push_back({desc, Style::kDim});
    }
    table.add_styled_row(std::move(cells));
  }
  if (rendered == 0) {
    std::vector<util::Cell> cells(headers.size(), util::Cell{"", Style::kNone});
    cells[0] = {"(no correlations above threshold)", Style::kDim};
    table.add_styled_row(std::move(cells));
  }
  return table.render();
}

std::string render_measurement(const Measurement& measurement, const ReportOptions& options) {
  std::vector<std::string> headers = {"event", "mean", "stddev", "reps"};
  if (measurement.has_trust_annotations()) headers.push_back("trust");
  if (options.show_descriptions) headers.push_back("description");
  util::Table table(headers);
  std::string title = "EvSel measurement: " + measurement.label();
  if (measurement.quarantined_runs() > 0) {
    title += util::format(" (%zu quarantined runs)", measurement.quarantined_runs());
  }
  if (measurement.retry_exhausted_runs() > 0) {
    title += util::format(" (retry budget exhausted, %zu outlier runs kept)",
                          measurement.retry_exhausted_runs());
  }
  table.set_title(std::move(title));
  table.set_align(1, util::Align::kRight);
  table.set_align(2, util::Align::kRight);
  table.set_align(3, util::Align::kRight);

  usize rendered = 0;
  for (const sim::Event event : measurement.recorded_events()) {
    if (options.max_rows > 0 && rendered >= options.max_rows) break;
    ++rendered;
    const auto& info = sim::event_info(event);
    const auto& samples = measurement.samples(event);
    const Style style = measurement.all_zero(event) ? Style::kDim : Style::kNone;
    std::vector<util::Cell> cells;
    cells.push_back({std::string(info.name), style});
    cells.push_back({util::si_scaled(measurement.mean(event)), style});
    cells.push_back({util::si_scaled(stats::stddev(samples)), style});
    cells.push_back({std::to_string(samples.size()), style});
    if (measurement.has_trust_annotations()) cells.push_back(trust_cell(measurement.trust(event)));
    if (options.show_descriptions) {
      std::string desc(info.description);
      if (desc.size() > 56) desc = desc.substr(0, 53) + "...";
      cells.push_back({desc, Style::kDim});
    }
    table.add_styled_row(std::move(cells));
  }
  return table.render();
}

}  // namespace npat::evsel
