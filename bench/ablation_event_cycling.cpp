// Ablation for EvSel's central design decision (§IV-A.1): measuring all
// counters over repeated identically-configured runs ("batches of
// registers sequentially") instead of event cycling (multiplexing) during
// a single run. The paper *argues* batching "might yield better results
// when many counters are measured"; this bench quantifies it.
//
// Protocol: a two-phase workload (allocation burst, then compute) is
// measured both ways; ground truth comes from reading the free-running
// counters directly. We report the relative error per strategy and the
// run-count cost of batching.
#include <cstdio>

#include <cmath>

#include <map>

#include "evsel/collector.hpp"
#include "perf/registry.hpp"
#include "sim/presets.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workloads/rampup_app.hpp"

int main(int argc, char** argv) {
  using namespace npat;

  i64 repetitions = 3;
  i64 rotation = 150000;
  util::Cli cli("Ablation: batched repeated runs vs event multiplexing");
  cli.add_flag("reps", &repetitions, "repetitions per strategy");
  cli.add_flag("rotation", &rotation, "multiplexing rotation interval (cycles)");
  if (const auto rc = cli.parse_main(argc, argv)) return *rc;

  const sim::MachineConfig config = sim::hpe_dl580_gen9(2);
  auto factory = [] {
    workloads::RampupParams params;
    params.regions = 24;
    params.region_bytes = 192 * 1024;
    params.compute_rounds = 10;
    return workloads::rampup_app_program(params);
  };

  // Ground truth: free-running totals of one reference run per repetition
  // (a facility real PMUs do not offer across >registers events — the
  // simulator's advantage for this ablation).
  // A single oversized "group" is impossible through the perf layer; read
  // the machine directly instead.
  std::map<sim::Event, double> truth;
  {
    sim::Machine machine(config);
    for (u32 rep = 0; rep < repetitions; ++rep) {
      trace::Run run(machine, {.seed = 4242 + rep});
      run.run(factory());
      const auto totals = machine.aggregate_counters();
      for (const auto& info : sim::all_events()) {
        truth[info.event] += static_cast<double>(totals[info.event]) /
                             static_cast<double>(repetitions);
      }
    }
  }

  auto measure = [&](evsel::CollectionStrategy strategy) {
    evsel::Collector collector(config);
    evsel::CollectOptions options;
    options.repetitions = static_cast<u32>(repetitions);
    options.strategy = strategy;
    options.rotation_interval = static_cast<Cycles>(rotation);
    options.seed = 4242;
    const auto measurement = collector.measure("ablation", factory, options);
    return std::make_pair(measurement, collector.runs_executed());
  };

  const auto [batched, batched_runs] = measure(evsel::CollectionStrategy::kBatchedRuns);
  const auto [multiplexed, multiplexed_runs] =
      measure(evsel::CollectionStrategy::kMultiplexed);

  // Mean absolute relative error across all nonzero-truth events.
  auto error_of = [&](const evsel::Measurement& m) {
    double total = 0.0;
    usize counted = 0;
    for (const auto& [event, expected] : truth) {
      if (expected <= 0.0 || !m.has(event)) continue;
      total += std::fabs(m.mean(event) - expected) / expected;
      ++counted;
    }
    return counted ? total / static_cast<double>(counted) : 0.0;
  };

  util::Table table({"strategy", "program runs", "mean |rel. error|"});
  table.set_title("EvSel collection-strategy ablation (" +
                  std::to_string(truth.size()) + " events, " +
                  std::to_string(perf::kProgrammableCoreRegisters) + " core registers)");
  table.set_align(1, util::Align::kRight);
  table.set_align(2, util::Align::kRight);
  table.add_row({"batched repeated runs (EvSel)", util::with_thousands(batched_runs),
                 util::format("%.2f %%", error_of(batched) * 100)});
  table.add_row({"event multiplexing", util::with_thousands(multiplexed_runs),
                 util::format("%.2f %%", error_of(multiplexed) * 100)});
  std::fputs(table.render().c_str(), stdout);

  // Worst-case event under multiplexing (phase-correlated events suffer).
  sim::Event worst = sim::Event::kCycles;
  double worst_error = 0.0;
  for (const auto& [event, expected] : truth) {
    if (expected < 1000.0 || !multiplexed.has(event)) continue;
    const double err = std::fabs(multiplexed.mean(event) - expected) / expected;
    if (err > worst_error) {
      worst_error = err;
      worst = event;
    }
  }
  std::printf("\nworst multiplexing error: %s at %.1f %% "
              "(short-lived phases land between rotations)\n",
              std::string(sim::event_name(worst)).c_str(), worst_error * 100);
  return 0;
}
