// numatop-style live view: a per-node table of the current window's NUMA
// rates (local/remote access ratio, IPC, DRAM bandwidth, interconnect
// traffic, RSS) plus an ASCII sparkline of each node's remote-access ratio
// over recent windows. Rendering is byte-stable with ANSI styling off (the
// util::ansi global), so tests can assert on output while a terminal gets
// colour cues: remote-heavy nodes red, idle nodes dim.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "monitor/aggregate.hpp"
#include "obs/alert.hpp"
#include "util/types.hpp"

namespace npat::monitor {

struct ViewOptions {
  /// Core frequency used to scale bytes/cycle into GB/s.
  double frequency_ghz = 2.4;
  /// Width of the remote-ratio history sparkline; 0 hides the column.
  usize spark_width = 20;
  /// Remote-ratio thresholds seeding obs::remote_ratio_rule; also used
  /// directly (no hysteresis) when `node_alerts` is not supplied.
  double warn_remote_ratio = 0.2;
  double bad_remote_ratio = 0.5;
  /// Committed per-node severities from an obs::AlertEngine (see
  /// evaluate_node_alerts). When sized, the view renders an Alert column
  /// and styles Remote% from these instead of the raw thresholds.
  std::vector<obs::Severity> node_alerts;
  /// Host-wide live phase from a phasen::OnlineDetector (phase_label()).
  /// When non-empty, the view renders a Phase column; empty hides it.
  std::string phase_label;
  /// Emit an ANSI home+clear prefix before the frame (live top-style
  /// refresh); only honoured while ANSI styling is globally enabled.
  bool clear_screen = false;
  std::string title = "npat-top";
};

/// Maps values in [0, 1] onto an ASCII intensity ramp, one glyph per
/// element; values are clamped.
std::string sparkline(std::span<const double> values, usize width);

/// Renders one frame: a summary line (time, window span, footprint, sample
/// and drop counts) and the per-node table. `history` supplies the
/// sparkline series (older windows first, `window` typically last).
std::string render_view(const WindowStats& window, std::span<const WindowStats> history,
                        const ViewOptions& options = {});

/// Feeds one aggregation window's per-node remote ratios through the
/// engine's "remote_ratio" rule (subjects "node0", "node1", …) and returns
/// the committed severities, ready to assign to ViewOptions::node_alerts.
std::vector<obs::Severity> evaluate_node_alerts(obs::AlertEngine& engine,
                                                const WindowStats& window);

}  // namespace npat::monitor
