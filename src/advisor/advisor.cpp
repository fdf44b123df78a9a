#include "advisor/advisor.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <span>

#include "monitor/aggregate.hpp"
#include "monitor/sampler.hpp"
#include "monitor/task_sampler.hpp"
#include "obs/alert.hpp"
#include "os/procfs.hpp"
#include "phasen/attribution.hpp"
#include "proc/task.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"

namespace npat::advisor {

namespace {

constexpr u64 kAreaBytes = 1024 * 1024;  // hot-area granularity (TaskSampler's)

/// Stall-cycle weight of one unit of memory-controller imbalance (max/mean
/// of per-node DRAM traffic, the paper's imbalance factor): at weight w, a
/// placement funneling everything through one of N controllers pays
/// 1 + w*(N-1) on its memory stalls relative to a balanced one.
constexpr double kImbalanceWeight = 0.2;

double clamp01(double value) { return std::min(1.0, std::max(0.0, value)); }

/// Fraction of `threads` logical threads running on `node` under `affinity`.
double thread_share_on_node(const sim::Topology& topology, os::AffinityPolicy affinity,
                            u32 threads, sim::NodeId node) {
  u32 on_node = 0;
  for (u32 i = 0; i < threads; ++i) {
    const sim::CoreId core = os::core_for_thread(topology, affinity, i);
    if (topology.node_of_core(core) == node) ++on_node;
  }
  return static_cast<double>(on_node) / static_cast<double>(threads);
}

/// Mean interconnect hops between distinct nodes (1.0 when fully
/// connected); the flits-per-remote-access normalizer.
double average_hops(const sim::Topology& topology) {
  if (topology.nodes < 2) return 1.0;
  double hops = 0.0;
  u32 pairs = 0;
  for (sim::NodeId a = 0; a < topology.nodes; ++a) {
    for (sim::NodeId b = 0; b < topology.nodes; ++b) {
      if (a == b) continue;
      hops += static_cast<double>(topology.hops(a, b));
      ++pairs;
    }
  }
  return pairs > 0 ? std::max(1.0, hops / pairs) : 1.0;
}

/// Expected remote fraction when pages stay where the profile saw them
/// (numastat shares) and threads run under `affinity`.
double remote_ratio_for_profiled_pages(const sim::Topology& topology,
                                       os::AffinityPolicy affinity, u32 threads,
                                       const std::vector<double>& page_share) {
  if (page_share.size() != topology.nodes) {
    return 1.0 - 1.0 / static_cast<double>(topology.nodes);  // assume uniform
  }
  double local = 0.0;
  for (u32 i = 0; i < threads; ++i) {
    const sim::CoreId core = os::core_for_thread(topology, affinity, i);
    local += page_share[topology.node_of_core(core)];
  }
  return clamp01(1.0 - local / static_cast<double>(threads));
}

}  // namespace

// --- Placement ---------------------------------------------------------------

std::string Placement::name() const {
  std::string out = os::affinity_name(affinity);
  out += '+';
  if (!page_policy) {
    out += "as-is";
  } else if (*page_policy == os::PagePolicy::kBind) {
    out += util::format("bind(%u)", bind_node);
  } else {
    out += os::page_policy_name(*page_policy);
  }
  return out;
}

std::vector<sim::Event> default_events() {
  return {
      sim::Event::kCycles,           sim::Event::kInstructions,
      sim::Event::kStallCyclesMem,   sim::Event::kMemLoadLocalDram,
      sim::Event::kMemLoadRemoteDram, sim::Event::kMemLoadRemoteHitm,
      sim::Event::kUncQpiTxFlits,    sim::Event::kUncImcReads,
      sim::Event::kSwPageMigrations,
  };
}

// --- scoring -----------------------------------------------------------------

std::vector<Candidate> score_candidates(const CounterSignature& signature,
                                        const sim::Topology& topology, u32 threads,
                                        const Placement& baseline, double remote_penalty) {
  threads = std::max(threads, 1u);
  const double nodes = static_cast<double>(topology.nodes);
  const double measured_remote = clamp01(signature.remote_ratio);
  const double cycles = static_cast<double>(signature.cycles);
  const double stall = static_cast<double>(signature.stall_cycles_mem);
  const double penalty = std::max(remote_penalty, 1.0);

  // Candidate grid: both affinities x {keep the workload's own policy,
  // first-touch, interleave, bind to each node}.
  std::vector<Placement> grid;
  for (const auto affinity : {baseline.affinity, baseline.affinity == os::AffinityPolicy::kCompact
                                                     ? os::AffinityPolicy::kScatter
                                                     : os::AffinityPolicy::kCompact}) {
    grid.push_back({affinity, std::nullopt, 0});
    grid.push_back({affinity, os::PagePolicy::kFirstTouch, 0});
    grid.push_back({affinity, os::PagePolicy::kInterleave, 0});
    for (sim::NodeId n = 0; n < topology.nodes; ++n) {
      grid.push_back({affinity, os::PagePolicy::kBind, n});
    }
  }

  std::vector<Candidate> out;
  out.reserve(grid.size());
  for (const Placement& placement : grid) {
    const double shared = clamp01(signature.shared_fraction);
    const double private_frac = 1.0 - shared;
    // First-touch places shared pages on whichever thread touches first —
    // model it as thread 0's node.
    const sim::NodeId first_toucher = topology.node_of_core(
        os::core_for_thread(topology, placement.affinity, 0));

    double r_private = 0.0;
    double r_shared = 0.0;
    if (!placement.page_policy) {
      // Pages stay where the workload's own policy put them during the
      // profile (exact for bind/interleave workloads; first-touch pages
      // would follow the new thread placement, which this overestimates).
      const double r = remote_ratio_for_profiled_pages(topology, placement.affinity,
                                                       threads, signature.page_share);
      r_private = r;
      r_shared = r;
    } else {
      switch (*placement.page_policy) {
        case os::PagePolicy::kFirstTouch:
          r_private = 0.0;  // every thread touches its own pages first
          r_shared =
              1.0 - thread_share_on_node(topology, placement.affinity, threads, first_toucher);
          break;
        case os::PagePolicy::kInterleave:
          r_private = 1.0 - 1.0 / nodes;
          r_shared = 1.0 - 1.0 / nodes;
          break;
        case os::PagePolicy::kBind: {
          const double on_bind =
              thread_share_on_node(topology, placement.affinity, threads, placement.bind_node);
          r_private = 1.0 - on_bind;
          r_shared = 1.0 - on_bind;
          break;
        }
      }
    }
    double predicted_remote = clamp01(private_frac * r_private + shared * r_shared);
    if (placement == baseline) predicted_remote = measured_remote;  // status quo is measured

    // DRAM traffic distribution over memory controllers under this
    // candidate; its max/mean is the paper's imbalance factor. One loaded
    // controller queues where four would stream, so concentration costs
    // stall cycles even when every access is local.
    std::vector<double> traffic(topology.nodes, 0.0);
    if (!placement.page_policy) {
      if (signature.page_share.size() == traffic.size()) {
        traffic = signature.page_share;
      } else {
        std::fill(traffic.begin(), traffic.end(), 1.0 / nodes);
      }
    } else {
      switch (*placement.page_policy) {
        case os::PagePolicy::kFirstTouch:
          for (sim::NodeId n = 0; n < topology.nodes; ++n) {
            traffic[n] = thread_share_on_node(topology, placement.affinity, threads, n);
          }
          break;
        case os::PagePolicy::kInterleave:
          std::fill(traffic.begin(), traffic.end(), 1.0 / nodes);
          break;
        case os::PagePolicy::kBind:
          traffic[placement.bind_node] = 1.0;
          break;
      }
    }
    const double imbalance = std::max(
        1.0, *std::max_element(traffic.begin(), traffic.end()) * nodes);
    double baseline_imbalance = 1.0;
    if (signature.page_share.size() == traffic.size() && !signature.page_share.empty()) {
      baseline_imbalance = std::max(
          1.0, *std::max_element(signature.page_share.begin(), signature.page_share.end()) *
                   nodes);
    }

    // Memory stalls scale with the average access penalty: a remote access
    // costs `penalty` local ones, so the stall budget moves with
    // 1 + (penalty-1) * remote_ratio; controller concentration scales it
    // again via the imbalance factor. Compute cycles are unaffected.
    const double baseline_factor = (1.0 + (penalty - 1.0) * measured_remote) *
                                   (1.0 + kImbalanceWeight * (baseline_imbalance - 1.0));
    const double candidate_factor = (1.0 + (penalty - 1.0) * predicted_remote) *
                                    (1.0 + kImbalanceWeight * (imbalance - 1.0));
    const double predicted_stall = stall * candidate_factor / baseline_factor;
    const double predicted_cycles = std::max(1.0, cycles - stall + predicted_stall);

    Candidate candidate;
    candidate.placement = placement;
    candidate.predicted_remote_ratio = predicted_remote;
    candidate.predicted_cycles = predicted_cycles;
    candidate.predicted_speedup = cycles > 0.0 ? cycles / predicted_cycles : 1.0;
    candidate.rationale = util::format(
        "compute phase: %.0f%% remote, %.0f%% of cycles stalled on memory, controller "
        "imbalance %.1f; %s predicts %.0f%% remote at imbalance %.1f -> %.2fx",
        100.0 * measured_remote, 100.0 * clamp01(signature.stall_fraction),
        baseline_imbalance, candidate.placement.name().c_str(), 100.0 * predicted_remote,
        imbalance, candidate.predicted_speedup);
    out.push_back(std::move(candidate));
  }

  std::stable_sort(out.begin(), out.end(), [](const Candidate& a, const Candidate& b) {
    return a.predicted_cycles < b.predicted_cycles;
  });
  return out;
}

// --- Advisor -----------------------------------------------------------------

Advisor::Advisor(sim::MachineConfig config) : config_(std::move(config)) {}

double Advisor::remote_penalty() const {
  if (config_.topology.nodes < 2) return 1.0;
  const double local = static_cast<double>(config_.memory.local_dram_latency);
  const double remote = local + average_hops(config_.topology) *
                                    static_cast<double>(config_.memory.per_hop_latency);
  return remote / local;
}

Recommendation Advisor::advise(const evsel::ProgramFactory& factory,
                               const AdvisorOptions& options) {
  NPAT_CHECK_MSG(options.replay_repetitions >= 1, "need at least one replay repetition");
  NPAT_CHECK_MSG(options.sample_period > 0, "sample period must be positive");

  Recommendation rec;
  rec.baseline = options.baseline;

  // ---- 1. profile run: one instrumented execution under the baseline ----
  sim::Machine machine(config_);
  trace::Run run(machine, {.affinity = options.baseline.affinity,
                           .seed = options.seed,
                           .task_accounting = true});
  if (options.baseline.page_policy) {
    run.space().set_policy_override(*options.baseline.page_policy, options.baseline.bind_node);
  }

  monitor::SamplerConfig sampler_config;
  sampler_config.period = options.sample_period;
  monitor::Sampler sampler(machine, run.space(), sampler_config);
  sampler.attach(run.runner());
  monitor::TaskSamplerConfig task_config;
  task_config.period = options.sample_period;
  monitor::TaskSampler task_sampler(machine, task_config);
  task_sampler.attach(run.runner());
  phasen::CounterTimeline timeline(machine);
  os::FootprintRecorder footprint(run.space());
  run.runner().add_sampler(options.sample_period, [&](Cycles now) {
    timeline.sample(now);
    footprint.sample(now);
  });

  const trace::Program program = factory();
  const u32 threads = static_cast<u32>(program.threads.size());
  proc::TaskRegistry registry;
  registry.add_program(program);
  // Baseline snapshot at t=0: without it the first phase's deltas would
  // start at the first periodic tick and silently drop everything before
  // it (for short runs, the whole allocation/fill phase).
  timeline.sample(0);
  footprint.sample(0);
  run.run(program);
  const Cycles end_clock = machine.max_clock();
  sampler.sample(end_clock);
  task_sampler.sample(end_clock);
  timeline.sample(end_clock);
  footprint.sample(end_clock);

  // numastat share of resident pages per node.
  const std::vector<u64> node_pages = run.space().pages_per_node();
  u64 total_pages = 0;
  for (const u64 pages : node_pages) total_pages += pages;
  for (const u64 pages : node_pages) {
    rec.signature.page_share.push_back(
        total_pages > 0 ? static_cast<double>(pages) / static_cast<double>(total_pages) : 0.0);
  }

  // ---- 2. phase split + per-phase attribution; the compute phase is the
  //         one carrying the most cycles ----
  const auto& footprint_samples = footprint.samples();
  if (footprint_samples.size() >= 8) {
    rec.phases = phasen::detect_phases_auto(footprint_samples);
  } else if (!footprint_samples.empty()) {
    phasen::Phase whole;
    whole.first_sample = 0;
    whole.last_sample = footprint_samples.size() - 1;
    whole.start_time = footprint_samples.front().timestamp;
    whole.end_time = footprint_samples.back().timestamp;
    rec.phases.phases.push_back(whole);
  }

  phasen::PhaseCounters compute;
  if (timeline.snapshots().size() >= 2 && !rec.phases.phases.empty()) {
    const phasen::PhaseAttribution attribution = phasen::attribute(timeline, rec.phases);
    usize best_phase = 0;
    for (usize p = 1; p < attribution.phases.size(); ++p) {
      if (attribution.phases[p].count(sim::Event::kCycles) >
          attribution.phases[best_phase].count(sim::Event::kCycles)) {
        best_phase = p;
      }
    }
    rec.compute_phase = best_phase;
    compute = attribution.phases[best_phase];
  } else {
    // Degenerate capture (too few snapshots): attribute the whole run.
    compute.start_time = 0;
    compute.end_time = end_clock;
    compute.deltas = machine.aggregate_counters();
  }

  CounterSignature& sig = rec.signature;
  sig.cycles = compute.count(sim::Event::kCycles);
  sig.stall_cycles_mem = compute.count(sim::Event::kStallCyclesMem);
  const u64 local_dram = compute.count(sim::Event::kMemLoadLocalDram);
  const u64 remote_dram = compute.count(sim::Event::kMemLoadRemoteDram);
  const u64 remote_hitm = compute.count(sim::Event::kMemLoadRemoteHitm);
  sig.numa_loads = local_dram + remote_dram + remote_hitm;
  sig.remote_ratio =
      sig.numa_loads > 0
          ? static_cast<double>(remote_dram + remote_hitm) / static_cast<double>(sig.numa_loads)
          : 0.0;
  // Trust gate: when the harness rated one of the load-uop DRAM events
  // suspect or refuted, the per-uop remote ratio above is built on counts
  // we cannot believe — fall back to the uncore estimate and flag the
  // degraded inputs in the recommendation.
  const validate::TrustReport* trust =
      options.trust != nullptr ? options.trust : validate::active_trust_report();
  bool primaries_untrusted = false;
  if (trust != nullptr) {
    for (const sim::Event event :
         {sim::Event::kMemLoadLocalDram, sim::Event::kMemLoadRemoteDram,
          sim::Event::kMemLoadRemoteHitm}) {
      const validate::TrustTier tier = trust->tier(event);
      if (validate::below_bounded(tier)) {
        primaries_untrusted = true;
        sig.degraded_inputs.push_back(std::string(sim::event_name(event)) + " (" +
                                      validate::tier_name(tier) + ")");
      }
    }
  }
  if (sig.numa_loads == 0 || primaries_untrusted) {
    // Cache-resident working sets miss only on cold lines, and those misses
    // are often store/RFO traffic the load-uop DRAM events never see. The
    // uncore still sees every access: flits / avg-hops approximates remote
    // DRAM accesses, IMC reads+writes the total.
    const double dram_accesses = static_cast<double>(compute.count(sim::Event::kUncImcReads) +
                                                     compute.count(sim::Event::kUncImcWrites));
    const double remote_accesses =
        static_cast<double>(compute.count(sim::Event::kUncQpiTxFlits)) /
        average_hops(machine.topology());
    if (dram_accesses > 0.0) {
      sig.remote_ratio = clamp01(remote_accesses / dram_accesses);
      sig.remote_ratio_from_uncore = true;
    }
    if (trust != nullptr) {
      // The fallback is only as good as the uncore counters themselves.
      for (const sim::Event event :
           {sim::Event::kUncQpiTxFlits, sim::Event::kUncImcReads, sim::Event::kUncImcWrites}) {
        const validate::TrustTier tier = trust->tier(event);
        if (validate::below_bounded(tier)) {
          sig.degraded_inputs.push_back(std::string(sim::event_name(event)) + " (" +
                                        validate::tier_name(tier) + ")");
        }
      }
    }
  }
  sig.stall_fraction =
      sig.cycles > 0 ? static_cast<double>(sig.stall_cycles_mem) / static_cast<double>(sig.cycles)
                     : 0.0;
  const u64 instructions = compute.count(sim::Event::kInstructions);
  sig.qpi_flits_per_kinstr =
      instructions > 0 ? 1000.0 * static_cast<double>(compute.count(sim::Event::kUncQpiTxFlits)) /
                             static_cast<double>(instructions)
                       : 0.0;

  // ---- 3. per-node windows: cycle imbalance + live remote-ratio alerts ----
  const std::vector<monitor::Sample> node_samples = sampler.ring().drain();
  {
    std::vector<u64> node_cycles(machine.nodes(), 0);
    u64 total_cycles = 0;
    for (const monitor::Sample& sample : node_samples) {
      if (sample.timestamp <= compute.start_time || sample.timestamp > compute.end_time) {
        continue;
      }
      for (usize n = 0; n < sample.nodes.size() && n < node_cycles.size(); ++n) {
        node_cycles[n] += sample.nodes[n].cycles;
        total_cycles += sample.nodes[n].cycles;
      }
    }
    if (total_cycles > 0) {
      const u64 peak = *std::max_element(node_cycles.begin(), node_cycles.end());
      sig.node_cycle_imbalance = static_cast<double>(peak) / static_cast<double>(total_cycles);
    }
  }
  {
    obs::AlertEngine engine;
    engine.add_rule(obs::remote_ratio_rule(options.warn_remote_ratio, options.bad_remote_ratio,
                                           /*dwell_windows=*/2));
    constexpr usize kWindow = 8;
    for (usize start = 0; start + kWindow <= node_samples.size(); start += kWindow) {
      const monitor::WindowStats window = monitor::aggregate(
          std::span<const monitor::Sample>(node_samples.data() + start, kWindow));
      for (usize n = 0; n < window.nodes.size(); ++n) {
        engine.evaluate("remote_ratio", "node" + std::to_string(n),
                        window.nodes[n].remote_ratio());
      }
      // Uncore view of the same window — catches remote store/RFO traffic
      // the load-uop breakdown misses (see the signature fallback).
      u64 dram_accesses = 0;
      u64 flits = 0;
      for (usize s = start; s < start + kWindow; ++s) {
        for (const monitor::NodeSample& node : node_samples[s].nodes) {
          dram_accesses += node.imc_reads + node.imc_writes;
          flits += node.qpi_flits;
        }
      }
      if (dram_accesses > 0) {
        engine.evaluate("remote_ratio", "uncore",
                        clamp01(static_cast<double>(flits) /
                                average_hops(machine.topology()) /
                                static_cast<double>(dram_accesses)));
      }
    }
    for (const obs::AlertTransition& transition : engine.transitions()) {
      rec.alerts.push_back(util::format(
          "%s %s: %s -> %s at %.0f%% remote", transition.rule.c_str(),
          transition.subject.c_str(), obs::severity_name(transition.from),
          obs::severity_name(transition.to), 100.0 * transition.value));
    }
  }

  // ---- 4. per-task hot areas: shared fraction + migration hints ----
  const std::vector<monitor::TaskSample> task_samples = task_sampler.ring().drain();
  if (!task_samples.empty()) {
    const monitor::TaskWindowStats window = monitor::aggregate_tasks(
        std::span<const monitor::TaskSample>(task_samples.data(), task_samples.size()));
    std::map<u64, std::map<std::pair<u32, u32>, u64>> area_tasks;
    std::map<u64, u64> area_samples;
    for (const monitor::TaskStats& task : window.tasks) {
      for (const monitor::TaskArea& area : task.areas) {
        area_tasks[area.base][{task.pid, task.tid}] += area.samples;
        area_samples[area.base] += area.samples;
      }
    }
    // An area is "shared" only when no single task owns two thirds of its
    // samples: per-thread arrays merely straddling a 1 MiB boundary must
    // not masquerade as shared data (the scorer would write off first-touch
    // for workloads it is exactly right for), while a table split evenly
    // between tasks still counts.
    u64 shared_samples = 0;
    u64 total_samples = 0;
    for (const auto& [base, samples] : area_samples) {
      total_samples += samples;
      u64 dominant = 0;
      for (const auto& [task, count] : area_tasks[base]) dominant = std::max(dominant, count);
      if (3 * dominant <= 2 * samples) shared_samples += samples;
    }
    sig.shared_fraction = total_samples > 0 ? static_cast<double>(shared_samples) /
                                                  static_cast<double>(total_samples)
                                            : 0.0;

    // Hints: for each remote-heavy task, move its hottest areas next to the
    // node executing it (ordered hottest-first across tasks).
    for (const monitor::TaskStats& task : window.tasks) {
      if (task.remote_ratio() < options.warn_remote_ratio) continue;
      std::vector<monitor::TaskArea> areas = task.areas;
      std::sort(areas.begin(), areas.end(),
                [](const monitor::TaskArea& a, const monitor::TaskArea& b) {
                  return a.samples > b.samples;
                });
      usize emitted = 0;
      for (const monitor::TaskArea& area : areas) {
        if (emitted >= options.max_hints_per_task) break;
        MigrationHint hint;
        hint.pid = task.pid;
        hint.tid = task.tid;
        if (const proc::TaskInfo* info = registry.find_identity(task.pid, task.tid)) {
          hint.task = info->process_name + "/" + info->thread_name;
        }
        hint.area_base = area.base / kAreaBytes * kAreaBytes;
        hint.samples = area.samples;
        hint.target = task.node;
        rec.hints.push_back(std::move(hint));
        ++emitted;
      }
    }
    std::stable_sort(rec.hints.begin(), rec.hints.end(),
                     [](const MigrationHint& a, const MigrationHint& b) {
                       return a.samples > b.samples;
                     });
  }

  // ---- 5. score the candidate grid from the signature ----
  rec.ranked =
      score_candidates(sig, machine.topology(), threads, options.baseline, remote_penalty());

  // ---- 6. apply-and-rerun: measure the baseline and the top-k candidates
  //         with the placement override; ground truth picks the winner ----
  evsel::Collector collector(config_);
  evsel::CollectOptions collect;
  collect.repetitions = options.replay_repetitions;
  collect.events = options.events.empty() ? default_events() : options.events;
  collect.seed = options.seed;
  collect.affinity = options.baseline.affinity;
  collect.page_policy_override = options.baseline.page_policy;
  collect.override_bind_node = options.baseline.bind_node;
  rec.before = collector.measure("before " + options.baseline.name(), factory, collect);
  rec.before_cycles = rec.before.mean(sim::Event::kCycles);

  for (const Candidate& candidate : rec.ranked) {
    if (rec.replays.size() >= options.replay_top_k) break;
    if (candidate.placement == options.baseline) continue;  // already measured
    evsel::CollectOptions apply = collect;
    apply.affinity = candidate.placement.affinity;
    apply.page_policy_override = candidate.placement.page_policy;
    apply.override_bind_node = candidate.placement.bind_node;
    Replay replay;
    replay.placement = candidate.placement;
    replay.measurement =
        collector.measure("after " + candidate.placement.name(), factory, apply);
    replay.cycles = replay.measurement.mean(sim::Event::kCycles);
    replay.measured_speedup = replay.cycles > 0.0 ? rec.before_cycles / replay.cycles : 1.0;
    replay.predicted_speedup = candidate.predicted_speedup;
    rec.replays.push_back(std::move(replay));
  }
  if (!rec.replays.empty()) {
    rec.best_replay = 0;
    for (usize r = 1; r < rec.replays.size(); ++r) {
      if (rec.replays[r].cycles < rec.replays[rec.best_replay].cycles) rec.best_replay = r;
    }
    rec.delta = evsel::compare(rec.before, rec.replays[rec.best_replay].measurement);
  }
  return rec;
}

}  // namespace npat::advisor
