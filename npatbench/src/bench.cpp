#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <map>
#include <memory>

#include "evsel/collector.hpp"
#include "fleet_job.hpp"
#include "ladder.hpp"
#include "sim_jobs.hpp"
#include "stats.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"

namespace npatbench {

namespace {

using npat::util::format;
using npat::util::Json;

constexpr const char* kWorkloads[] = {"scan_compare", "sort_sweep", "fleet_ingest"};

// Each run measures at least this many jobs, whatever its time budget.
constexpr usize kMinJobs = 3;

/// Per-metric samples across the jobs of one run, reported as medians.
class SampleSet {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    auto [it, inserted] = index_.try_emplace(name, entries_.size());
    if (inserted) entries_.push_back({name, unit, {}});
    entries_[it->second].values.push_back(value);
  }
  Metrics medians() const {
    Metrics out;
    for (const Entry& entry : entries_) out.set(entry.name, median(entry.values), entry.unit);
    return out;
  }

 private:
  struct Entry {
    std::string name;
    std::string unit;
    std::vector<double> values;
  };
  std::map<std::string, usize> index_;
  std::vector<Entry> entries_;
};

std::string hex(u64 value) { return format("%016llx", static_cast<unsigned long long>(value)); }

bool expected_applies(const RunOptions& options) {
  return options.expected.has_value() &&
         static_cast<u64>(options.expected->get_number("seed", -1.0)) == options.seed;
}

/// The committed per-run digests of a sim workload (empty if not recorded).
std::vector<std::string> expected_runs(const RunOptions& options, const std::string& workload) {
  std::vector<std::string> out;
  if (!expected_applies(options)) return out;
  const Json* entry = options.expected->find(workload);
  if (entry == nullptr) return out;
  for (const Json& run : entry->at("runs").as_array()) out.push_back(run.as_string());
  return out;
}

SimJobSpec spec_for(const std::string& workload, u64 seed, JobSize size) {
  return workload == "scan_compare" ? scan_compare_spec(seed, size) : sort_sweep_spec(seed, size);
}

void add_self_times(SampleSet& samples, const Tracer& tracer, double traced_job_s) {
  // Only modules the job called; a traced run takes the others from the
  // companion job that calls them.
  for (const auto& [module, seconds] : tracer.self_seconds()) {
    samples.add("self_s." + module, seconds, "s");
  }
  samples.add("bench.traced_job_s", traced_job_s, "s");
  samples.add("bench.unaccounted_s", traced_job_s - tracer.covered_seconds(), "s");
}

/// Checks one untraced sim job: every run's counters against the committed
/// expectation (default seed) or against the run's first job (any seed),
/// plus the figure's shape directions.
void check_sim_job(const SimJobResult& job, const std::vector<std::string>& expected,
                   const std::vector<u64>& first_job, const std::string& name, Checks& checks) {
  if (!expected.empty()) {
    checks.check(expected.size() == job.run_digests.size(),
                 name + ": run count matches expectation");
    for (usize i = 0; i < job.run_digests.size() && i < expected.size(); ++i) {
      checks.check(hex(job.run_digests[i]) == expected[i],
                   format("%s: run %zu counters match expectation", name.c_str(), i));
    }
  } else if (!first_job.empty()) {
    for (usize i = 0; i < job.run_digests.size(); ++i) {
      checks.check(i < first_job.size() && job.run_digests[i] == first_job[i],
                   format("%s: run %zu counters repeat exactly", name.c_str(), i));
    }
  }
  checks.check(job.shape_failures.empty(),
               name + ": shape " + (job.shape_failures.empty() ? "" : job.shape_failures[0]));
  checks.check(job.memops > 0, name + ": retired memory ops counted");
}

/// Per-layer samples of one traced sim job, paired with its untraced twin.
void add_sim_layers(SampleSet& samples, const SimJobSpec& spec, const SimJobResult& untraced,
                    const TracedSimJobResult& traced, const Tracer& tracer) {
  const double runs = static_cast<double>(traced.totals.runs);
  const double reset_s = tracer.call_seconds("Machine::reset");
  const double run_s = tracer.call_seconds("Runner::run");
  samples.add("sim.reset_ms", 1e3 * reset_s / runs, "ms");
  samples.add("sim.reset_share", reset_s / traced.job_s, "1");
  samples.add("sim.memops", static_cast<double>(traced.totals.memops), "count");
  samples.add("sim.page_walks", static_cast<double>(traced.totals.page_walks), "count");
  samples.add("sim.hitm", static_cast<double>(traced.totals.hitm), "count");
  samples.add("trace.run_ms", 1e3 * run_s / runs, "ms");
  samples.add("trace.host_ns_per_memop",
              1e9 * run_s / static_cast<double>(traced.totals.memops), "ns");
  samples.add("trace.slices", static_cast<double>(traced.totals.slices), "count");
  samples.add("trace.host_ns_per_slice",
              1e9 * run_s / static_cast<double>(traced.totals.slices), "ns");
  samples.add("os.space_setup_us", 1e6 * tracer.call_seconds("AddressSpace::AddressSpace") / runs,
              "us");
  samples.add("perf.session_us",
              1e6 *
                  (tracer.call_seconds("CountingSession::CountingSession") +
                   tracer.call_seconds("CountingSession::start") +
                   tracer.call_seconds("CountingSession::stop")) /
                  runs,
              "us");
  samples.add("workloads.build_ms", 1e3 * tracer.call_seconds("program factory") / runs, "ms");
  samples.add("evsel.measure_s", untraced.measure_s, "s");
  samples.add("evsel.runs", static_cast<double>(untraced.runs), "count");
  samples.add(spec.analysis == Analysis::kCompare ? "evsel.compare_ms" : "evsel.correlate_ms",
              1e3 * traced.analysis_s, "ms");
}

void add_fleet_layers(SampleSet& samples, const FleetSpec& spec, const FleetJobResult& job,
                      const Tracer& tracer) {
  const double sends = static_cast<double>(tracer.call_count("SupervisedProbe::send"));
  samples.add("resilience.send_us",
              sends > 0 ? 1e6 * tracer.call_seconds("SupervisedProbe::send") / sends : 0.0, "us");
  samples.add("resilience.duplicates", static_cast<double>(job.duplicates), "count");
  samples.add("resilience.redials", static_cast<double>(job.redials), "count");
  std::vector<double> per_probe;
  std::vector<double> per_ready;
  double ready_total = 0.0;
  const double probes = static_cast<double>(spec.probes);
  for (usize i = 0; i < job.poll_ms.size(); ++i) {
    const double ready = static_cast<double>(job.ready[i]);
    per_probe.push_back(1e3 * job.poll_ms[i] / probes);
    if (ready > 0) per_ready.push_back(1e3 * job.poll_ms[i] / ready);
    ready_total += ready;
  }
  samples.add("fleet.poll_us_per_probe", median(per_probe), "us");
  samples.add("fleet.poll_us_per_ready_probe", median(per_ready), "us");
  samples.add("fleet.ready_ratio",
              ready_total / (static_cast<double>(job.poll_ms.size()) * probes), "1");
  samples.add("fleet.frames", static_cast<double>(job.frames), "count");
  samples.add("fleet.damage", static_cast<double>(job.damage), "count");
}

void check_fleet_job(const FleetJobResult& job, const std::optional<u64>& expected_digest,
                     const std::optional<u64>& first_digest, Checks& checks) {
  for (usize h = 0; h < job.probe_ok.size(); ++h) {
    checks.check(job.probe_ok[h],
                 format("fleet_ingest: probe %zu reconciles and merges exactly", h));
  }
  if (expected_digest) {
    checks.check(job.digest == *expected_digest, "fleet_ingest: state digest matches expectation");
  } else if (first_digest) {
    checks.check(job.digest == *first_digest, "fleet_ingest: state digest repeats exactly");
  }
  checks.check(job.frames > 0 && job.samples_sent > 0, "fleet_ingest: frames decoded");
}

std::optional<u64> expected_fleet_digest(const RunOptions& options) {
  if (!expected_applies(options)) return std::nullopt;
  const Json* entry = options.expected->find("fleet_ingest");
  if (entry == nullptr) return std::nullopt;
  return std::stoull(entry->at("digest").as_string(), nullptr, 16);
}

/// `steps[j]` holds job j's step times. Both figures are taken per job and
/// their median over jobs reported, so a host slowdown that spans a few
/// jobs of the run does not set them.
void add_steps(RunReport& report, const std::vector<std::vector<double>>& steps,
               const char* what) {
  std::vector<double> medians;
  std::vector<double> tails;
  Tail last;
  for (const std::vector<double>& job : steps) {
    medians.push_back(median(job));
    last = tail(job);
    tails.push_back(last.value);
  }
  report.metrics.set("step_ms_p50", median(medians), "ms");
  report.metrics.set("step_ms_tail", median(tails), "ms");
  report.notes.push_back(format("step_ms_p50 and step_ms_tail are medians over %zu jobs of each "
                                "job's p50 and p%.2f of %zu %s",
                                steps.size(), last.percentile, last.samples, what));
}

void add_job_quartiles(RunReport& report, const std::vector<double>& job_s) {
  if (job_s.size() < 2) return;
  const Quartiles q = quartiles(job_s);
  report.notes.push_back(format("job_s over %zu jobs: q1 %.4f  median %.4f  q3 %.4f", job_s.size(),
                                q.q1, q.q2, q.q3));
}

bool budget_left(Clock::time_point start, double seconds, usize jobs) {
  return jobs < kMinJobs || seconds_since(start) < seconds;
}

// --- sim workloads ---------------------------------------------------------

void run_sim_untraced(const RunOptions& options, RunReport& report) {
  const SimJobSpec spec = spec_for(options.workload, options.seed, JobSize::kFull);
  const std::vector<std::string> expected = expected_runs(options, options.workload);
  std::vector<double> setup_s;
  std::vector<double> job_s;
  std::vector<std::vector<double>> run_ms;
  std::vector<double> throughput;
  std::vector<u64> first_job;
  const Clock::time_point start = Clock::now();
  while (budget_left(start, options.seconds, job_s.size())) {
    const SimJobResult job = run_sim_job(spec);
    check_sim_job(job, expected, first_job, options.workload, report.checks);
    if (first_job.empty()) first_job = job.run_digests;
    setup_s.push_back(job.setup_s);
    job_s.push_back(job.job_s);
    run_ms.push_back(job.run_ms);
    throughput.push_back(static_cast<double>(job.memops) / job.job_s / 1e6);
  }
  report.metrics.set("job_s", median(job_s), "s");
  report.metrics.set("setup_s", median(setup_s), "s");
  add_steps(report, run_ms, "simulated program runs");
  report.metrics.set("throughput_m_per_s", median(throughput), "M/s");
  add_job_quartiles(report, job_s);
}

/// Traced pairs of one sim job: the untraced job, then its replay.
/// Returns the per-layer samples; `jobs` caps the pairs (0 = time budget).
SampleSet trace_sim_workload(const SimJobSpec& spec, const RunOptions& options, usize jobs,
                             RunReport& report) {
  const std::vector<std::string> expected =
      jobs == 0 ? expected_runs(options, spec.name) : std::vector<std::string>{};
  SampleSet samples;
  Tracer tracer;
  std::vector<u64> first_job;
  usize done = 0;
  const Clock::time_point start = Clock::now();
  while (jobs > 0 ? done < jobs : budget_left(start, options.seconds, done)) {
    const SimJobResult untraced = run_sim_job(spec);
    check_sim_job(untraced, expected, first_job, spec.name, report.checks);
    if (first_job.empty()) first_job = untraced.run_digests;
    tracer.clear();
    const TracedSimJobResult traced = run_traced_sim_job(spec, tracer);
    report.checks.check(same_measurements(untraced.measurements, traced.measurements),
                        spec.name + ": traced replay equals the untraced Measurement");
    report.checks.check(traced.totals.memops == untraced.memops,
                        spec.name + ": replayed memory ops equal the recorded counters");
    report.checks.check(traced.shape_failures.empty(), spec.name + ": traced shape");
    add_sim_layers(samples, spec, untraced, traced, tracer);
    add_self_times(samples, tracer, traced.job_s);
    samples.add("bench.untraced_job_s", untraced.job_s, "s");
    samples.add("bench.tracing_overhead_s", traced.job_s - untraced.job_s, "s");
    ++done;
  }
  report.trace_json = tracer.to_chrome_json();
  return samples;
}

// --- fleet workload --------------------------------------------------------

void run_fleet_untraced(const RunOptions& options, RunReport& report) {
  const FleetSpec spec = fleet_ingest_spec(options.seed, JobSize::kFull);
  const std::optional<u64> expected = expected_fleet_digest(options);
  std::vector<double> setup_s;
  std::vector<double> job_s;
  std::vector<std::vector<double>> poll_ms;
  std::vector<double> throughput;
  std::optional<u64> first_digest;
  const Clock::time_point start = Clock::now();
  while (budget_left(start, options.seconds, job_s.size())) {
    const FleetJobResult job = run_fleet_job(spec, nullptr);
    check_fleet_job(job, expected, first_digest, report.checks);
    if (!first_digest) first_digest = job.digest;
    setup_s.push_back(job.setup_s);
    job_s.push_back(job.job_s);
    poll_ms.push_back(job.poll_ms);
    throughput.push_back(static_cast<double>(job.frames) / job.job_s / 1e6);
  }
  report.metrics.set("job_s", median(job_s), "s");
  report.metrics.set("setup_s", median(setup_s), "s");
  add_steps(report, poll_ms, "FleetCollector::poll calls");
  report.metrics.set("throughput_m_per_s", median(throughput), "M/s");
  add_job_quartiles(report, job_s);
}

SampleSet trace_fleet_workload(const FleetSpec& spec, const RunOptions& options, usize jobs,
                               RunReport& report) {
  const std::optional<u64> expected =
      jobs == 0 ? expected_fleet_digest(options) : std::optional<u64>{};
  SampleSet samples;
  Tracer tracer;
  std::optional<u64> first_digest;
  usize done = 0;
  const Clock::time_point start = Clock::now();
  while (jobs > 0 ? done < jobs : budget_left(start, options.seconds, done)) {
    const FleetJobResult untraced = run_fleet_job(spec, nullptr);
    check_fleet_job(untraced, expected, first_digest, report.checks);
    if (!first_digest) first_digest = untraced.digest;
    tracer.clear();
    const FleetJobResult traced = run_fleet_job(spec, &tracer);
    check_fleet_job(traced, expected, first_digest, report.checks);
    add_fleet_layers(samples, spec, traced, tracer);
    add_self_times(samples, tracer, traced.job_s);
    samples.add("bench.untraced_job_s", untraced.job_s, "s");
    samples.add("bench.tracing_overhead_s", traced.job_s - untraced.job_s, "s");
    ++done;
  }
  report.trace_json = tracer.to_chrome_json();
  return samples;
}

// --- traced run --------------------------------------------------------------

/// Per-layer medians of `workload` at `size`; `jobs` as for the traced
/// workload functions above.
Metrics traced_metrics(const std::string& workload, JobSize size, const RunOptions& options,
                       usize jobs, RunReport& report) {
  if (workload == "fleet_ingest") {
    return trace_fleet_workload(fleet_ingest_spec(options.seed, size), options, jobs, report)
        .medians();
  }
  return trace_sim_workload(spec_for(workload, options.seed, size), options, jobs, report)
      .medians();
}

void run_traced(const RunOptions& options, RunReport& report) {
  report.metrics = traced_metrics(options.workload, JobSize::kFull, options, 0, report);
  const std::string main_trace = report.trace_json;

  run_sim_ladder(report.metrics, report.checks);
  run_os_ladder(report.metrics, report.checks);
  run_wire_ladder(report.metrics, report.checks);
  run_evsel_ladder(report.metrics, report.checks);

  // Layers this workload never calls are reported from one small fixed job
  // of the workload that does, so every traced run names every layer.
  for (const char* other : kWorkloads) {
    if (other == options.workload) continue;
    report.metrics.fill_from(traced_metrics(other, JobSize::kMini, options, 1, report));
  }
  report.trace_json = main_trace;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace

RunReport run_benchmark(const RunOptions& options) {
  const bool known = std::find(std::begin(kWorkloads), std::end(kWorkloads), options.workload) !=
                     std::end(kWorkloads);
  NPAT_CHECK_MSG(known, "unknown workload '" + options.workload + "'");
  NPAT_CHECK_MSG(options.seconds > 0.0, "--seconds must be positive");
  RunReport report;
  if (options.trace) {
    run_traced(options, report);
  } else {
    if (options.workload == "fleet_ingest") {
      run_fleet_untraced(options, report);
    } else {
      run_sim_untraced(options, report);
    }
    report.metrics.set("peak_rss_mb", peak_rss_mb(), "MiB");
    report.metrics.set("ok_ops_frac", 1.0 - report.checks.failed_fraction(), "1");
  }
  report.notes.push_back(format("failed_ops_frac = %llu / %llu = %.6f",
                                static_cast<unsigned long long>(report.checks.failed()),
                                static_cast<unsigned long long>(report.checks.attempted()),
                                report.checks.failed_fraction()));
  for (const std::string& failure : report.checks.failures()) {
    report.notes.push_back("FAILED: " + failure);
  }
  return report;
}

Json record_expectations(u64 seed) {
  npat::util::JsonObject doc;
  doc["seed"] = seed;
  for (const char* name : {"scan_compare", "sort_sweep"}) {
    const SimJobSpec spec = spec_for(name, seed, JobSize::kFull);
    const SimJobResult job = run_sim_job(spec);
    NPAT_CHECK_MSG(job.shape_failures.empty(), std::string(name) + ": shape directions fail");
    npat::util::JsonArray runs;
    for (const u64 digest : job.run_digests) runs.emplace_back(hex(digest));
    npat::util::JsonObject entry;
    entry["runs"] = Json(std::move(runs));
    entry["memops"] = job.memops;
    doc[name] = Json(std::move(entry));
  }
  const FleetJobResult fleet = run_fleet_job(fleet_ingest_spec(seed, JobSize::kFull), nullptr);
  for (const bool ok : fleet.probe_ok) {
    NPAT_CHECK_MSG(ok, "fleet_ingest: a probe fails to reconcile");
  }
  npat::util::JsonObject entry;
  entry["digest"] = hex(fleet.digest);
  entry["frames"] = fleet.frames;
  doc["fleet_ingest"] = Json(std::move(entry));
  return Json(std::move(doc));
}

}  // namespace npatbench
