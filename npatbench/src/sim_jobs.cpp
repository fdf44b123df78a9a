#include "sim_jobs.hpp"

#include <memory>
#include <optional>

#include "evsel/compare.hpp"
#include "evsel/regress.hpp"
#include "os/vm.hpp"
#include "perf/registry.hpp"
#include "perf/session.hpp"
#include "stats.hpp"
#include "sim/presets.hpp"
#include "trace/runner.hpp"
#include "util/check.hpp"
#include "workloads/cache_scan.hpp"
#include "workloads/parallel_sort.hpp"

namespace npatbench {

namespace {

using npat::usize;
using npat::sim::Event;
namespace evsel = npat::evsel;

u64 fnv_mix(u64 hash, u64 value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffu;
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Run seed of (repetition, group), exactly as Collector::measure derives it.
u64 run_seed(u64 base, u32 rep, usize group) {
  return base + 0x1000003ULL * rep + 0x10001ULL * group;
}

std::vector<std::vector<Event>> groups_of(const evsel::CollectOptions& options) {
  return npat::perf::plan_event_groups(options.events.empty() ? npat::perf::available_events()
                                                              : options.events);
}

double sample_of(const evsel::Measurement& m, Event event, u32 rep) {
  const std::vector<double>& samples = m.samples(event);
  NPAT_CHECK_MSG(rep < samples.size(), "measurement lacks a repetition");
  return samples[rep];
}

std::vector<std::string> compare_shape(const evsel::Comparison& comparison) {
  // Fig. 8: the row-stride listing misses far more in L1/L2, floods the
  // L3 and the fill buffers, and starves the L2 streamer.
  struct Direction {
    Event event;
    bool up;
  };
  const Direction kDirections[] = {
      {Event::kL1dMiss, true},         {Event::kL2Miss, true},
      {Event::kL3Access, true},        {Event::kFillBufferRejects, true},
      {Event::kL2PrefetchRequests, false},
  };
  std::vector<std::string> failures;
  for (const Direction& d : kDirections) {
    const evsel::ComparisonRow& row = comparison.row(d.event);
    const bool ok = d.up ? row.test.mean_b > row.test.mean_a : row.test.mean_b < row.test.mean_a;
    if (!ok) failures.push_back("fig8 direction of " + std::string(npat::sim::event_name(d.event)));
  }
  return failures;
}

std::vector<std::string> correlate_shape(const evsel::SweepResult& sweep) {
  // Fig. 9: L1D locks rise with the thread count, speculative jumps fall.
  std::vector<std::string> failures;
  const evsel::CorrelationRow* locks = sweep.correlation(Event::kL1dLocks);
  if (locks == nullptr || !(locks->best.r > 0.0)) failures.push_back("fig9 l1d.locks not positive");
  const evsel::CorrelationRow* jumps = sweep.correlation(Event::kSpeculativeJumpsRetired);
  if (jumps == nullptr || !(jumps->best.r < 0.0)) {
    failures.push_back("fig9 speculative jumps not negative");
  }
  return failures;
}

std::vector<std::string> analyse(const SimJobSpec& spec,
                                 const std::vector<evsel::Measurement>& measurements,
                                 double* seconds) {
  std::vector<evsel::Measurement> input = measurements;
  const Clock::time_point start = Clock::now();
  std::vector<std::string> failures;
  if (spec.analysis == Analysis::kCompare) {
    NPAT_CHECK_MSG(input.size() == 2, "a comparison needs two points");
    failures = compare_shape(evsel::compare(input[0], input[1]));
  } else {
    failures = correlate_shape(evsel::correlate(spec.parameter_name, std::move(input)));
  }
  *seconds = seconds_since(start);
  return failures;
}

}  // namespace

SimJobSpec scan_compare_spec(u64 seed, JobSize size) {
  SimJobSpec spec;
  spec.name = "scan_compare";
  spec.machine = npat::sim::hpe_dl580_gen9(2);
  spec.analysis = Analysis::kCompare;
  spec.options.seed = seed;
  if (size == JobSize::kMini) {
    // The Fig. 8 shape events plus the retired loads and stores the job's
    // op count is read from.
    spec.options.events = {Event::kL1dMiss,           Event::kL2Miss,       Event::kL3Access,
                           Event::kFillBufferRejects, Event::kL2PrefetchRequests,
                           Event::kLoadsRetired,      Event::kStoresRetired};
  }
  // 512 x 512 floats: a column walk's row-stride lines map to few enough L1
  // and L2 sets to thrash both, as the paper's 1024 x 1024 does.
  npat::workloads::CacheScanParams unit;
  unit.size = 512;
  unit.variant = npat::workloads::ScanVariant::kUnitStride;
  unit.fill_phase = false;  // Fig. 8 measures the traversal alone
  npat::workloads::CacheScanParams row = unit;
  row.variant = npat::workloads::ScanVariant::kRowStride;
  // A row-stride run takes about twice as long as a unit-stride one. The
  // row-stride listing gets one more repetition so the median of the job's
  // run times falls inside its cluster instead of in the gap between them.
  spec.points.push_back({"listing-1 (unit stride)", 0.0,
                         [unit] { return npat::workloads::cache_scan_program(unit); }, 2});
  spec.points.push_back({"listing-2 (row stride)", 0.0,
                         [row] { return npat::workloads::cache_scan_program(row); }, 3});
  return spec;
}

SimJobSpec sort_sweep_spec(u64 seed, JobSize size) {
  SimJobSpec spec;
  spec.name = "sort_sweep";
  spec.machine = npat::sim::hpe_dl580_gen9(4);  // 4 sockets x 4 cores
  spec.analysis = Analysis::kCorrelate;
  spec.parameter_name = "threads";
  spec.options.seed = seed;
  // Fig. 9's events of interest; retired loads and stores stand in for the
  // two branch counters so the job's simulated op count is read from the
  // counters it records.
  spec.options.events = {
      Event::kCycles,         Event::kInstructions,     Event::kL1dLocks,
      Event::kSpeculativeJumpsRetired, Event::kPageWalks, Event::kAtomicOps,
      Event::kLoadsRetired,   Event::kStoresRetired,    Event::kStallCyclesMem,
      Event::kMemLoadRemoteDram, Event::kUncQpiTxFlits, Event::kUncImcReads,
  };
  const usize elements = size == JobSize::kFull ? 8192 : 2048;
  const std::vector<u32> threads = size == JobSize::kFull ? std::vector<u32>{1, 2, 4, 8, 16}
                                                          : std::vector<u32>{1, 2, 4};
  for (const u32 t : threads) {
    npat::workloads::ParallelSortParams params;
    params.elements = elements;
    params.threads = t;
    spec.points.push_back({"threads=" + std::to_string(t), static_cast<double>(t),
                           [params] { return npat::workloads::parallel_sort_program(params); },
                           size == JobSize::kFull ? 3u : 2u});
  }
  return spec;
}

SimJobResult run_sim_job(const SimJobSpec& spec) {
  SimJobResult result;
  const auto groups = groups_of(spec.options);
  const Clock::time_point setup_start = Clock::now();
  evsel::Collector collector(spec.machine);
  result.setup_s = seconds_since(setup_start);
  const Clock::time_point job_start = Clock::now();
  for (const SimPoint& point : spec.points) {
    std::vector<Clock::time_point> factory_calls;
    const npat::evsel::ProgramFactory timed = [&factory_calls, &point] {
      factory_calls.push_back(Clock::now());
      return point.factory();
    };
    evsel::CollectOptions options = spec.options;
    options.repetitions = point.repetitions;
    const Clock::time_point start = Clock::now();
    evsel::Measurement m = collector.measure(point.label, timed, options);
    const Clock::time_point stop = Clock::now();
    result.measure_s += std::chrono::duration<double>(stop - start).count();
    for (usize k = 0; k < factory_calls.size(); ++k) {
      const Clock::time_point end = k + 1 < factory_calls.size() ? factory_calls[k + 1] : stop;
      result.run_ms.push_back(
          std::chrono::duration<double, std::milli>(end - factory_calls[k]).count());
    }
    if (spec.analysis == Analysis::kCorrelate) {
      m.set_parameter(spec.parameter_name, point.parameter);
    }
    result.measurements.push_back(std::move(m));
  }
  result.shape_failures = analyse(spec, result.measurements, &result.analysis_s);
  result.job_s = seconds_since(job_start);
  result.runs = collector.runs_executed();

  // Per-run counter values, recovered from the measurement in run order:
  // repetition r of group g holds sample r of every event in g.
  for (usize p = 0; p < spec.points.size(); ++p) {
    const evsel::Measurement& m = result.measurements[p];
    for (u32 rep = 0; rep < spec.points[p].repetitions; ++rep) {
      for (const auto& group : groups) {
        u64 hash = 14695981039346656037ull;
        for (const Event event : group) {
          hash = fnv_mix(hash, static_cast<u64>(event));
          hash = fnv_mix(hash, static_cast<u64>(sample_of(m, event, rep)));
        }
        result.run_digests.push_back(hash);
      }
      // Every run of a repetition executes the same program, so each of
      // its runs retires the loads and stores the counting run saw (the
      // traced run checks this against the replay's exact totals).
      result.memops += groups.size() * static_cast<u64>(sample_of(m, Event::kLoadsRetired, rep) +
                                                        sample_of(m, Event::kStoresRetired, rep));
    }
  }
  return result;
}

evsel::Measurement replay_measure(npat::sim::Machine& machine, const std::string& label,
                                  const evsel::ProgramFactory& factory,
                                  const evsel::CollectOptions& options, Tracer* tracer,
                                  ReplayTotals* totals) {
  const auto groups = groups_of(options);
  std::vector<std::vector<std::vector<npat::perf::EventValue>>> values(
      groups.size(), std::vector<std::vector<npat::perf::EventValue>>(options.repetitions));
  for (u32 rep = 0; rep < options.repetitions; ++rep) {
    for (usize g = 0; g < groups.size(); ++g) {
      std::optional<npat::perf::CountingSession> session;
      {
        Tracer::Span span(tracer, "perf", "CountingSession::CountingSession");
        session.emplace(machine, groups[g]);
      }
      {
        Tracer::Span span(tracer, "sim", "Machine::reset");
        machine.reset();
      }
      std::unique_ptr<npat::os::AddressSpace> space;
      {
        Tracer::Span span(tracer, "os", "AddressSpace::AddressSpace");
        space = std::make_unique<npat::os::AddressSpace>(machine.topology());
      }
      npat::trace::RunnerConfig runner_config;
      runner_config.seed = run_seed(options.seed, rep, g);
      runner_config.affinity = options.affinity;
      std::optional<npat::trace::Runner> runner;
      {
        Tracer::Span span(tracer, "trace", "Runner::Runner");
        runner.emplace(machine, *space, runner_config);
      }
      {
        Tracer::Span span(tracer, "perf", "CountingSession::start");
        session->start();
      }
      npat::trace::Program program;
      {
        Tracer::Span span(tracer, "workloads", "program factory");
        program = factory();
      }
      npat::trace::RunResult run;
      {
        Tracer::Span span(tracer, "trace", "Runner::run");
        run = runner->run(program);
      }
      {
        Tracer::Span span(tracer, "perf", "CountingSession::stop");
        values[g][rep] = session->stop();
      }
      if (totals == nullptr) continue;
      npat::sim::CounterBlock counters;
      {
        Tracer::Span span(tracer, "sim", "Machine::aggregate_counters");
        counters = machine.aggregate_counters();
      }
      totals->memops += counters[Event::kLoadsRetired] + counters[Event::kStoresRetired];
      totals->page_walks += counters[Event::kPageWalks];
      totals->hitm += counters[Event::kMemLoadRemoteHitm];
      totals->slices += run.scheduler_slices;
      ++totals->runs;
    }
  }
  evsel::Measurement m(label);
  for (u32 rep = 0; rep < options.repetitions; ++rep) {
    for (usize g = 0; g < groups.size(); ++g) m.add_values(values[g][rep]);
  }
  return m;
}

TracedSimJobResult run_traced_sim_job(const SimJobSpec& spec, Tracer& tracer) {
  TracedSimJobResult result;
  npat::sim::Machine machine(spec.machine);
  const Clock::time_point job_start = Clock::now();
  for (const SimPoint& point : spec.points) {
    evsel::CollectOptions options = spec.options;
    options.repetitions = point.repetitions;
    evsel::Measurement m =
        replay_measure(machine, point.label, point.factory, options, &tracer, &result.totals);
    if (spec.analysis == Analysis::kCorrelate) {
      m.set_parameter(spec.parameter_name, point.parameter);
    }
    result.measurements.push_back(std::move(m));
  }
  {
    Tracer::Span span(&tracer, "evsel",
                      spec.analysis == Analysis::kCompare ? "evsel::compare" : "evsel::correlate");
    result.shape_failures = analyse(spec, result.measurements, &result.analysis_s);
  }
  result.job_s = seconds_since(job_start);
  return result;
}

bool same_measurements(const std::vector<evsel::Measurement>& a,
                       const std::vector<evsel::Measurement>& b) {
  if (a.size() != b.size()) return false;
  for (usize i = 0; i < a.size(); ++i) {
    for (const auto& info : npat::sim::all_events()) {
      if (a[i].samples(info.event) != b[i].samples(info.event)) return false;
    }
  }
  return true;
}

}  // namespace npatbench
