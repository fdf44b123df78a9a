#include "monitor/view.hpp"

#include <algorithm>

#include "util/ansi.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace npat::monitor {

namespace {

// 10-level intensity ramp; index = clamp(value) scaled.
constexpr std::string_view kRamp = " .:-=+*#%@";

util::Style severity_style(obs::Severity severity) {
  switch (severity) {
    case obs::Severity::kBad:
      return util::Style::kRed;
    case obs::Severity::kWarn:
      return util::Style::kYellow;
    case obs::Severity::kOk:
      break;
  }
  return util::Style::kGreen;
}

/// Per-node severity: the alert engine's committed state when supplied,
/// otherwise the raw thresholds (no hysteresis).
obs::Severity node_severity(usize node, double remote_ratio, const ViewOptions& options) {
  if (node < options.node_alerts.size()) return options.node_alerts[node];
  if (remote_ratio >= options.bad_remote_ratio) return obs::Severity::kBad;
  if (remote_ratio >= options.warn_remote_ratio) return obs::Severity::kWarn;
  return obs::Severity::kOk;
}

std::string percent(double ratio) { return util::format("%5.1f%%", ratio * 100.0); }

}  // namespace

std::string sparkline(std::span<const double> values, usize width) {
  if (width == 0 || values.empty()) return "";
  // Keep the most recent `width` values.
  const usize take = std::min(values.size(), width);
  std::string out;
  out.reserve(take);
  for (usize i = values.size() - take; i < values.size(); ++i) {
    const double clamped = std::clamp(values[i], 0.0, 1.0);
    const usize level =
        std::min(kRamp.size() - 1, static_cast<usize>(clamped * static_cast<double>(kRamp.size())));
    out.push_back(kRamp[level]);
  }
  return out;
}

std::string render_view(const WindowStats& window, std::span<const WindowStats> history,
                        const ViewOptions& options) {
  std::string out;
  if (options.clear_screen && util::ansi_enabled()) out += "\x1b[H\x1b[2J";

  const NodeStats total = window.total();
  out += util::format(
      "%s — t=%s cycles  window=%s cycles  footprint=%s  samples=%llu\n",
      options.title.c_str(), util::si_scaled(static_cast<double>(window.end)).c_str(),
      util::si_scaled(static_cast<double>(window.span())).c_str(),
      util::human_bytes(window.footprint_bytes).c_str(),
      static_cast<unsigned long long>(window.samples));

  const bool spark = options.spark_width > 0 && !history.empty();
  const bool alerts = !options.node_alerts.empty();
  const bool phase = !options.phase_label.empty();
  std::vector<std::string> headers = {"Node", "Local%", "Remote%", "HITM%",
                                      "IPC",  "DRAM GB/s", "QPI fl/kc", "RSS"};
  if (alerts) headers.push_back("Alert");
  if (phase) headers.push_back("Phase");
  if (spark) headers.push_back("remote% trend");
  util::Table table(std::move(headers));
  for (usize c = 1; c <= 7; ++c) table.set_align(c, util::Align::kRight);

  const Cycles span = window.span(1);
  for (usize node = 0; node < window.nodes.size(); ++node) {
    const NodeStats& stats = window.nodes[node];
    const double hitm_ratio =
        stats.numa_loads() == 0
            ? 0.0
            : static_cast<double>(stats.remote_hitm) / static_cast<double>(stats.numa_loads());
    const bool idle = stats.instructions == 0;
    const util::Style row_style = idle ? util::Style::kDim : util::Style::kNone;

    const obs::Severity severity = node_severity(node, stats.remote_ratio(), options);
    std::vector<util::Cell> cells;
    cells.push_back({util::format("%zu", node), row_style});
    cells.push_back({percent(stats.local_ratio()), row_style});
    cells.push_back(
        {percent(stats.remote_ratio()), idle ? row_style : severity_style(severity)});
    cells.push_back({percent(hitm_ratio), row_style});
    cells.push_back({util::format("%4.2f", stats.ipc()), row_style});
    cells.push_back({util::format("%6.2f", stats.dram_gbps(span, options.frequency_ghz)),
                     row_style});
    cells.push_back(
        {util::format("%6.1f",
                      static_cast<double>(stats.qpi_flits) * 1000.0 / static_cast<double>(span)),
         row_style});
    cells.push_back({util::human_bytes(stats.resident_bytes), row_style});
    if (alerts) cells.push_back({obs::severity_name(severity), severity_style(severity)});
    // The phase is host-wide (one footprint series feeds the detector), so
    // every node row carries the same label.
    if (phase) cells.push_back({options.phase_label, util::Style::kCyan});

    if (spark) {
      std::vector<double> series;
      series.reserve(history.size());
      for (const WindowStats& past : history) {
        series.push_back(node < past.nodes.size() ? past.nodes[node].remote_ratio() : 0.0);
      }
      cells.push_back({sparkline(series, options.spark_width), util::Style::kCyan});
    }
    table.add_styled_row(std::move(cells));
  }

  // System-wide totals row.
  {
    std::vector<util::Cell> cells;
    const double hitm_ratio =
        total.numa_loads() == 0
            ? 0.0
            : static_cast<double>(total.remote_hitm) / static_cast<double>(total.numa_loads());
    cells.push_back({"all", util::Style::kBold});
    cells.push_back({percent(total.local_ratio()), util::Style::kBold});
    cells.push_back({percent(total.remote_ratio()), util::Style::kBold});
    cells.push_back({percent(hitm_ratio), util::Style::kBold});
    cells.push_back({util::format("%4.2f", total.ipc()), util::Style::kBold});
    cells.push_back(
        {util::format("%6.2f", total.dram_gbps(span, options.frequency_ghz)), util::Style::kBold});
    cells.push_back(
        {util::format("%6.1f",
                      static_cast<double>(total.qpi_flits) * 1000.0 / static_cast<double>(span)),
         util::Style::kBold});
    cells.push_back({util::human_bytes(total.resident_bytes), util::Style::kBold});
    if (alerts) {
      // Worst committed severity across nodes.
      obs::Severity worst = obs::Severity::kOk;
      for (obs::Severity s : options.node_alerts) worst = std::max(worst, s);
      cells.push_back({obs::severity_name(worst), severity_style(worst)});
    }
    if (phase) cells.push_back({options.phase_label, util::Style::kBold});
    if (spark) cells.push_back({"", util::Style::kNone});
    table.add_rule();
    table.add_styled_row(std::move(cells));
  }

  out += table.render();
  return out;
}

std::vector<obs::Severity> evaluate_node_alerts(obs::AlertEngine& engine,
                                                const WindowStats& window) {
  std::vector<obs::Severity> severities;
  severities.reserve(window.nodes.size());
  for (usize node = 0; node < window.nodes.size(); ++node) {
    severities.push_back(engine.evaluate("remote_ratio", util::format("node%zu", node),
                                         window.nodes[node].remote_ratio()));
  }
  return severities;
}

}  // namespace npat::monitor
