#include "memhist/builder.hpp"

#include "obs/obs.hpp"
#include "util/check.hpp"

namespace npat::memhist {

MemhistBuilder::MemhistBuilder(sim::Machine& machine, trace::Runner& runner,
                               MemhistOptions options)
    : machine_(&machine), options_(std::move(options)), session_(machine) {
  NPAT_CHECK_MSG(!options_.thresholds.empty(), "need at least one threshold");
  NPAT_CHECK_MSG(options_.slice_cycles > 0, "slice period must be positive");
  for (usize i = 1; i < options_.thresholds.size(); ++i) {
    NPAT_CHECK_MSG(options_.thresholds[i] > options_.thresholds[i - 1],
                   "threshold ladder must be strictly ascending");
  }
  readings_.reserve(options_.thresholds.size());
  for (Cycles t : options_.thresholds) readings_.push_back(ThresholdReading{t, 0, 0, 0});
  runner.add_sampler(options_.slice_cycles, [this](Cycles now) { rotate(now); });
}

void MemhistBuilder::start() {
  NPAT_CHECK_MSG(!running_, "builder already started");
  running_ = true;
  current_ = 0;
  started_at_ = machine_->max_clock();
  session_.arm(options_.thresholds[current_], options_.sample_period,
               options_.source_filter);
}

void MemhistBuilder::rotate(Cycles /*now*/) {
  if (!running_) return;
  NPAT_OBS_COUNT("npat_memhist_rotations_total", "Threshold ladder rotations", 1);
  const auto reading = session_.disarm();
  auto& acc = readings_[current_];
  acc.counted += reading.loads_at_or_above;
  acc.window_cycles += reading.enabled_cycles;
  acc.slices += 1;
  current_ = (current_ + 1) % options_.thresholds.size();
  session_.arm(options_.thresholds[current_], options_.sample_period,
               options_.source_filter);
}

LatencyHistogram MemhistBuilder::finish() {
  NPAT_CHECK_MSG(running_, "builder not started");
  running_ = false;
  const auto reading = session_.disarm();
  auto& acc = readings_[current_];
  acc.counted += reading.loads_at_or_above;
  acc.window_cycles += reading.enabled_cycles;
  acc.slices += 1;
  const Cycles total = machine_->max_clock() - started_at_;
  return build(readings_, total, options_.mode);
}

LatencyHistogram MemhistBuilder::build(const std::vector<ThresholdReading>& readings,
                                       Cycles total_cycles, HistogramMode mode) {
  NPAT_OBS_SPAN("memhist.assemble");
  NPAT_CHECK_MSG(!readings.empty(), "no readings to build from");

  // Extrapolate each threshold's rate over the whole run: R_i is the
  // estimated number of loads with latency >= threshold_i.
  std::vector<double> extrapolated(readings.size(), 0.0);
  std::vector<bool> unsampled(readings.size(), false);
  for (usize i = 0; i < readings.size(); ++i) {
    if (readings[i].window_cycles == 0) {
      unsampled[i] = true;
      continue;
    }
    const double rate =
        static_cast<double>(readings[i].counted) / static_cast<double>(readings[i].window_cycles);
    extrapolated[i] = rate * static_cast<double>(total_cycles);
  }

  std::vector<LatencyBin> bins;
  bins.reserve(readings.size());
  for (usize i = 0; i < readings.size(); ++i) {
    LatencyBin bin;
    bin.lo = readings[i].threshold;
    bin.hi = i + 1 < readings.size() ? readings[i + 1].threshold : 0;
    if (i + 1 < readings.size()) {
      bin.occurrences = extrapolated[i] - extrapolated[i + 1];
      // "negative event occurrences might be observed if the measurements
      // for both bounds vary excessively" — flag, do not hide.
      bin.uncertain = unsampled[i] || unsampled[i + 1] || bin.occurrences < 0.0;
    } else {
      bin.occurrences = extrapolated[i];
      bin.uncertain = unsampled[i];
    }
    bins.push_back(std::move(bin));
  }
  return LatencyHistogram(std::move(bins), mode);
}

}  // namespace npat::memhist
