#include "memhist/histogram.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/histogram_render.hpp"
#include "util/strings.hpp"

namespace npat::memhist {

double LatencyBin::representative_latency() const {
  if (hi == 0) return static_cast<double>(lo) * 1.5;
  return (static_cast<double>(lo) + static_cast<double>(hi)) / 2.0;
}

double LatencyHistogram::value(usize index) const {
  NPAT_CHECK(index < bins_.size());
  const LatencyBin& bin = bins_[index];
  return mode_ == HistogramMode::kOccurrences ? bin.occurrences : bin.cost();
}

std::optional<usize> LatencyHistogram::peak_bin() const {
  std::optional<usize> best;
  double best_value = 0.0;
  for (usize i = 0; i < bins_.size(); ++i) {
    if (bins_[i].uncertain) continue;
    const double v = value(i);
    if (!best || v > best_value) {
      best = i;
      best_value = v;
    }
  }
  return best;
}

usize LatencyHistogram::uncertain_bins() const {
  usize n = 0;
  for (const auto& bin : bins_) n += bin.uncertain ? 1 : 0;
  return n;
}

double LatencyHistogram::total_occurrences() const {
  double total = 0.0;
  for (const auto& bin : bins_) total += std::max(0.0, bin.occurrences);
  return total;
}

std::string LatencyHistogram::render(const std::string& title) const {
  std::vector<util::HistogramBar> bars;
  bars.reserve(bins_.size());
  for (usize i = 0; i < bins_.size(); ++i) {
    util::HistogramBar bar;
    const LatencyBin& bin = bins_[i];
    bar.label = bin.hi == 0
                    ? util::format("[%llu, inf)", static_cast<unsigned long long>(bin.lo))
                    : util::format("[%llu, %llu)", static_cast<unsigned long long>(bin.lo),
                                   static_cast<unsigned long long>(bin.hi));
    bar.value = std::max(0.0, value(i));
    bar.uncertain = bin.uncertain;
    bar.annotation = bin.annotation;
    bars.push_back(std::move(bar));
  }
  util::HistogramRenderOptions options;
  options.title = title + (mode_ == HistogramMode::kOccurrences ? " (event occurrences)"
                                                                : " (event costs)");
  options.footnote =
      "grey values: uncertain sampling; all intervals denoted in cycles; "
      "dominating bins truncated";
  options.truncate_above_fraction = 0.5;  // "L2 results truncated to ~half"
  return util::render_histogram(bars, options);
}

void annotate_with_machine_levels(LatencyHistogram& histogram,
                                  const sim::MachineConfig& config) {
  struct Level {
    double latency;
    std::string label;
  };
  // Use latencies as the PMU reports them: the L1 access cost is part of
  // every deeper level's latency.
  const double l1 = static_cast<double>(config.l1.hit_latency);
  std::vector<Level> levels;
  levels.push_back({static_cast<double>(config.l2.hit_latency), "L2"});
  levels.push_back({static_cast<double>(config.l3.hit_latency), "L3"});
  levels.push_back({l1 + static_cast<double>(config.memory.local_dram_latency),
                    "local memory"});
  const u32 max_hops = config.topology.max_hops();
  for (u32 h = 1; h <= max_hops; ++h) {
    const double latency = l1 + static_cast<double>(config.memory.local_dram_latency) +
                           static_cast<double>(config.memory.per_hop_latency) * h;
    std::string label = "remote memory";
    if (max_hops > 1) label += util::format(" (%u hop%s)", h, h == 1 ? "" : "s");
    levels.push_back({latency, std::move(label)});
  }

  for (const auto& level : levels) {
    for (auto& bin : histogram.bins()) {
      const double hi = bin.hi == 0 ? std::numeric_limits<double>::infinity()
                                    : static_cast<double>(bin.hi);
      if (level.latency >= static_cast<double>(bin.lo) && level.latency < hi) {
        if (!bin.annotation.empty()) bin.annotation += ", ";
        bin.annotation += level.label;
        break;
      }
    }
  }
}

}  // namespace npat::memhist
