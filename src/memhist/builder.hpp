// Memhist's measurement loop. Only one PEBS load-latency event can be
// armed at a time, so the builder *time-cycles* a ladder of thresholds
// (100 Hz in the paper — 10 ms slices), accumulating per-threshold counts
// and enable windows. Interval counts come from subtracting the
// extrapolated counts of adjacent thresholds; negative results are kept
// and flagged as uncertain.
#pragma once

#include <vector>

#include "memhist/histogram.hpp"
#include "perf/load_latency.hpp"
#include "trace/runner.hpp"

namespace npat::memhist {

struct ThresholdReading {
  Cycles threshold = 0;
  u64 counted = 0;          // loads with latency >= threshold while armed
  Cycles window_cycles = 0;  // total cycles this threshold was armed
  u64 slices = 0;            // how many time slices contributed
};

struct MemhistOptions {
  /// Ascending threshold ladder in cycles. The default ladder spans L1
  /// (which Intel cannot measure reliably below 3 cycles — the paper's
  /// note) up to deep remote latencies, with bin edges placed so each
  /// hierarchy level's use latency falls mid-bin.
  std::vector<Cycles> thresholds = {4, 8, 24, 48, 96, 160, 256, 384, 512, 768, 1024};
  /// Threshold rotation period in cycles (the paper's 100 Hz at 2.4 GHz is
  /// 24 M cycles; tests use shorter slices).
  Cycles slice_cycles = 2000000;
  u32 sample_period = 64;
  HistogramMode mode = HistogramMode::kOccurrences;
  /// Restrict the histogram to loads served from one data source — the
  /// paper's outlook: isolating TLB, coherence (HITM) and remote costs.
  std::optional<sim::DataSource> source_filter;
};

class MemhistBuilder {
 public:
  /// Registers the threshold-rotation hook with `runner`; the builder must
  /// outlive the run.
  MemhistBuilder(sim::Machine& machine, trace::Runner& runner, MemhistOptions options);

  /// Arms the first threshold. Call before runner.run().
  void start();
  /// Disarms and builds the histogram. Call after the run.
  LatencyHistogram finish();

  /// Raw per-threshold accumulations (also what the remote probe ships).
  const std::vector<ThresholdReading>& readings() const noexcept { return readings_; }

  /// Histogram assembly from readings — shared by the local path and the
  /// remote GUI collector. `total_cycles` scales rates to whole-run counts.
  static LatencyHistogram build(const std::vector<ThresholdReading>& readings,
                                Cycles total_cycles, HistogramMode mode);

 private:
  void rotate(Cycles now);

  sim::Machine* machine_;
  MemhistOptions options_;
  perf::LoadLatencySession session_;
  std::vector<ThresholdReading> readings_;
  usize current_ = 0;
  Cycles started_at_ = 0;
  bool running_ = false;
};

}  // namespace npat::memhist
