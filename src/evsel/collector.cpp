#include "evsel/collector.hpp"

#include <cmath>
#include <optional>

#include "obs/obs.hpp"
#include "perf/multiplex.hpp"
#include "perf/registry.hpp"
#include "perf/session.hpp"
#include "stats/descriptive.hpp"
#include "util/check.hpp"
#include "validate/trust.hpp"

namespace npat::evsel {

namespace {

/// One event's robust acceptance band across repetitions.
struct Band {
  sim::Event event = sim::Event::kCycles;
  double center = 0.0;
  double tolerance = 0.0;
};

double event_value(const std::vector<perf::EventValue>& values, sim::Event event,
                   bool* found = nullptr) {
  for (const auto& value : values) {
    if (value.event == event) {
      if (found != nullptr) *found = true;
      return value.value;
    }
  }
  if (found != nullptr) *found = false;
  return 0.0;
}

/// Builds the per-event MAD bands over one run column (`runs[rep]` holds
/// the values of repetition `rep` for a fixed group). Events missing from
/// any repetition are skipped — no band, no quarantine.
std::vector<Band> quarantine_bands(const std::vector<std::vector<perf::EventValue>>& runs,
                                   const std::vector<sim::Event>& events, double mad_k) {
  std::vector<Band> bands;
  for (const sim::Event event : events) {
    std::vector<double> samples;
    samples.reserve(runs.size());
    bool complete = true;
    for (const auto& run : runs) {
      bool found = false;
      const double value = event_value(run, event, &found);
      if (!found) {
        complete = false;
        break;
      }
      samples.push_back(value);
    }
    if (!complete || samples.size() < 3) continue;
    const double center = stats::median(samples);
    // 1.4826 * MAD estimates sigma under normality; the epsilon keeps the
    // band non-degenerate when a counter is perfectly repeatable.
    const double tolerance =
        mad_k * 1.4826 * stats::mad(samples) + 1e-6 * (1.0 + std::fabs(center));
    bands.push_back({event, center, tolerance});
  }
  return bands;
}

bool run_is_outlier(const std::vector<perf::EventValue>& run, const std::vector<Band>& bands) {
  for (const Band& band : bands) {
    bool found = false;
    const double value = event_value(run, band.event, &found);
    if (found && std::fabs(value - band.center) > band.tolerance) return true;
  }
  return false;
}

}  // namespace

Collector::Collector(sim::MachineConfig config)
    : config_(std::move(config)), machine_(config_) {}

std::vector<perf::EventValue> Collector::run_once(const ProgramFactory& factory, u64 seed,
                                                  const CollectOptions& options,
                                                  const std::vector<sim::Event>& events) {
  NPAT_OBS_SPAN("evsel.run");
  NPAT_OBS_COUNT("npat_evsel_runs_total", "Simulated program runs executed by EvSel", 1);
  // A batched run arms exactly one register group, checked before the reset.
  std::optional<perf::CountingSession> counting;
  if (options.strategy == CollectionStrategy::kBatchedRuns) counting.emplace(machine_, events);
  trace::Run run(machine_, {.affinity = options.affinity, .seed = seed});
  if (options.page_policy_override) {
    run.space().set_policy_override(*options.page_policy_override, options.override_bind_node);
  }
  std::optional<perf::MultiplexedSession> multiplexed;
  if (counting) {
    counting->start();
  } else {
    multiplexed.emplace(machine_, run.runner(), events, options.rotation_interval).start();
  }
  run.run(factory());
  ++runs_executed_;
  return counting ? counting->stop() : multiplexed->stop();
}

Measurement Collector::measure(const std::string& label, const ProgramFactory& factory,
                               const CollectOptions& options) {
  NPAT_OBS_SPAN("evsel.collect");
  NPAT_CHECK_MSG(options.repetitions >= 1, "need at least one repetition");
  const std::vector<sim::Event> events =
      options.events.empty() ? perf::available_events() : options.events;

  Measurement measurement(label);

  const bool screen = options.quarantine_mad_k > 0.0 && options.repetitions >= 3;
  u32 retry_budget = screen ? options.retry_budget : 0;
  u64 retry_serial = 0;
  usize quarantined = 0;
  usize retry_exhausted = 0;
  const auto quarantine = [&](std::vector<std::vector<perf::EventValue>>& runs,
                              const std::vector<sim::Event>& armed,
                              const std::function<void(u32 rep, u64 seed)>& rerun) {
    if (!screen) return;
    // The bands are frozen before any replacement so a re-measured run is
    // judged against the same consensus its predecessor failed.
    const std::vector<Band> bands = quarantine_bands(runs, armed, options.quarantine_mad_k);
    for (u32 rep = 0; rep < runs.size() && retry_budget > 0; ++rep) {
      while (retry_budget > 0 && run_is_outlier(runs[rep], bands)) {
        --retry_budget;
        ++quarantined;
        NPAT_OBS_COUNT("npat_evsel_quarantined_runs_total",
                       "Outlier runs quarantined and re-measured by the MAD screen", 1);
        rerun(rep, options.seed ^ (0x9E3779B97F4A7C15ULL * ++retry_serial));
      }
    }
    // With the budget dry, outliers that remain (flagged but never
    // re-measured, or re-measured into another outlier) enter the sample
    // set untreated; count them so reports can flag the degraded inputs.
    if (retry_budget == 0) {
      for (const auto& run : runs) {
        if (run_is_outlier(run, bands)) ++retry_exhausted;
      }
    }
  };

  // One column of runs per armed set, run_values[column][rep]: batched
  // runs re-run the program once per register group; multiplexed runs
  // rotate through every event in a single run.
  const std::vector<std::vector<sim::Event>> columns =
      options.strategy == CollectionStrategy::kBatchedRuns
          ? perf::plan_event_groups(events)
          : std::vector<std::vector<sim::Event>>{events};
  std::vector<std::vector<std::vector<perf::EventValue>>> run_values(
      columns.size(), std::vector<std::vector<perf::EventValue>>(options.repetitions));
  for (u32 rep = 0; rep < options.repetitions; ++rep) {
    for (usize g = 0; g < columns.size(); ++g) {
      run_values[g][rep] = run_once(factory, options.seed + 0x1000003ULL * rep + 0x10001ULL * g,
                                    options, columns[g]);
    }
  }
  for (usize g = 0; g < columns.size(); ++g) {
    quarantine(run_values[g], columns[g], [&](u32 rep, u64 seed) {
      run_values[g][rep] = run_once(factory, seed, options, columns[g]);
    });
  }
  for (u32 rep = 0; rep < options.repetitions; ++rep) {
    for (usize g = 0; g < columns.size(); ++g) measurement.add_values(run_values[g][rep]);
  }
  measurement.note_quarantined(quarantined);
  measurement.note_retry_exhausted(retry_exhausted);
  if (const validate::TrustReport* trust = validate::active_trust_report()) {
    measurement.annotate_trust(*trust);
  }
  return measurement;
}

}  // namespace npat::evsel
