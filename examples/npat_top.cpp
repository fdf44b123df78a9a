// Example: npat-top — a numatop-style live view over a running simulation.
// Where npat_stat summarizes a finished run, npat_top attaches the
// monitor::Sampler to the trace::Runner's time-based hook and refreshes a
// per-node table (local/remote ratio, IPC, DRAM bandwidth, interconnect
// traffic, RSS) every few sampling periods while the workload executes,
// with a sparkline of each node's recent remote-access ratio.
//
//   npat_top --workload=sort --preset=dual --threads=4
//   npat_top --workload=mlc --period=25000 --refresh-every=3 --clear
//   npat_top --workload=stream --csv=run.csv --json=run.json --wire=run.bin
//   npat_top --workload=gups --trace=top_trace.json
//
// With --fleet=N the same workload runs on N simulated probe hosts whose
// telemetry streams travel over loopback channels (protocol v3, one
// host-id Hello per probe, optional FaultyChannel fault injection) into a
// fleet::FleetCollector, and the merged fleet-wide table is rendered:
//
//   npat_top --fleet=4 --workload=stream --refresh-every=8
//   npat_top --fleet=3 --fault-drop=0.05 --fault-corrupt=0.05 --clear
//
// Adding --supervise upgrades every stream to the v4 resume protocol:
// each host replays through a resilience::SupervisedProbe that redials
// the collector whenever its link dies, and the collector dedups the
// retransmissions so every sample is merged exactly once. The injectors
// become survivable — --fault-disconnect=N cuts each connection mid-frame
// after N accepted sends — and --die-round=R parks host00 entirely for a
// stretch of refresh rounds so the LIVE column visibly decays to stale
// (and back) while the rest of the fleet streams on:
//
//   npat_top --fleet=3 --supervise --fault-disconnect=12 --fault-drop=0.05
//   npat_top --fleet=3 --supervise --die-round=4 --clear
//
// With --tasks the runner charges per-(pid, tid) PMU domains and the view
// becomes a numatop-style keyboard drill-down: nodes (or fleet hosts) →
// processes → threads → hot memory areas, each level a table of RMA, LMA,
// RMA/LMA ratio, CPI and average load latency. --keys scripts one
// keystroke per refresh ('.' is a no-op), so the whole descent is
// reproducible in CI; in fleet mode the per-task telemetry travels as
// protocol-v5 TaskTable + TaskSample frames over the same (faulty,
// supervised) channels as the node samples:
//
//   npat_top --tasks --workload=sort --keys="djd d"
//   npat_top --fleet=2 --tasks --keys="jdddd" --supervise
//
// --health appends the npat::introspect pane after every refresh: one row
// per probe with hop latency (from sampled emit stamps), reorder dwell,
// stage depths and damage, plus the flight-recorder summary line. In
// single-host mode the drained samples are routed through an internal
// stamped loopback probe so the pipeline observes itself end to end; in
// fleet mode the rows come straight from the collector. The self-metrics
// surface exports on exit: --prom (Prometheus text), --metrics-json, and
// --flight (the flight-recorder ring as JSON — also dumped on a fatal
// error so the black box survives a crash):
//
//   npat_top --health --workload=stream
//   npat_top --fleet=3 --supervise --fault-disconnect=12 --health
//   npat_top --health --prom=self.prom --metrics-json=self.json --flight=flight.json
//
// --advise (single-host) closes the detect→act loop after the run: the
// placement advisor profiles the same workload, ranks candidate
// thread/page placements from the counter signature, replays the top
// picks under an os-level policy override, and appends the before/after
// verdict pane:
//
//   npat_top --workload=stream --advise
//   npat_top --workload=gups --preset=dl580 --advise
//
// --trust (single-host) runs the npat::validate refutation-kernel suite
// against the same machine preset before the workload, publishes the
// resulting TrustReport process-wide — evsel comparisons quarantine
// refuted events, the advisor degrades to its uncore fallback when a
// primary event drops below bounded — and appends the per-event trust
// pane (tier, deciding kernel, observed ratio) after the run:
//
//   npat_top --workload=stream --trust
//   npat_top --workload=gups --trust --advise
#include <algorithm>
#include <optional>
#include <cstdio>
#include <fstream>
#include <memory>

#include <unistd.h>

#include "advisor/advisor.hpp"
#include "advisor/report.hpp"
#include "fleet/collector.hpp"
#include "fleet/view.hpp"
#include "introspect/flight.hpp"
#include "introspect/health.hpp"
#include "memhist/remote.hpp"
#include "monitor/aggregate.hpp"
#include "monitor/export.hpp"
#include "monitor/sampler.hpp"
#include "monitor/task_sampler.hpp"
#include "monitor/view.hpp"
#include "proc/drill.hpp"
#include "proc/task.hpp"
#include "obs/obs.hpp"
#include "phasen/online.hpp"
#include "resilience/probe.hpp"
#include "sim/presets.hpp"
#include "util/ansi.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "validate/harness.hpp"
#include "validate/trust.hpp"
#include "workloads/kernels.hpp"
#include "workloads/mlc_remote.hpp"
#include "workloads/parallel_sort.hpp"
#include "workloads/rampup_app.hpp"

namespace {

using namespace npat;

trace::Program workload_by_name(const std::string& name, u32 threads) {
  if (name == "sort") {
    workloads::ParallelSortParams params;
    params.elements = 1 << 16;
    params.threads = threads;
    return workloads::parallel_sort_program(params);
  }
  if (name == "mlc") {
    workloads::MlcParams params;
    params.buffer_bytes = MiB(8);
    params.chase_steps = 150000;
    return workloads::mlc_program(params);
  }
  if (name == "stream") {
    workloads::StreamParams params;
    params.threads = threads;
    return workloads::stream_triad_program(params);
  }
  if (name == "gups") {
    workloads::GupsParams params;
    params.threads = threads;
    return workloads::gups_program(params);
  }
  if (name == "rampup") {
    workloads::RampupParams params;
    return workloads::rampup_app_program(params);
  }
  throw util::CliError("unknown workload: " + name + " (try sort, mlc, stream, gups, rampup)");
}

void write_file(const std::string& path, const void* data, usize bytes) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw util::CliError("cannot write " + path);
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(bytes));
}

/// End-of-run self-metrics surface: the obs registry + flight totals as
/// Prometheus text and JSON, and the flight ring itself as the black-box
/// artifact. All three read process-wide state, so they cover whichever
/// mode (single-host, fleet, supervised) just ran.
void write_self_exports(const std::string& prom_path, const std::string& json_path,
                        const std::string& flight_path) {
  if (!prom_path.empty()) {
    const std::string text = introspect::self_metrics_prometheus();
    write_file(prom_path, text.data(), text.size());
    std::printf("wrote %s (%s)\n", prom_path.c_str(), util::human_bytes(text.size()).c_str());
  }
  if (!json_path.empty()) {
    const std::string json = introspect::self_metrics_json().dump(2) + "\n";
    write_file(json_path, json.data(), json.size());
    std::printf("wrote %s (%s)\n", json_path.c_str(), util::human_bytes(json.size()).c_str());
  }
  if (!flight_path.empty()) {
    introspect::flight().dump(flight_path);
    std::printf("wrote %s (flight ring: %llu events)\n", flight_path.c_str(),
                static_cast<unsigned long long>(introspect::flight().recorded()));
  }
}

struct FleetFlags {
  usize hosts = 0;
  std::string workload;
  std::string preset;
  u32 threads = 4;
  Cycles period = 50000;
  usize refresh_every = 4;
  double fault_drop = 0.0;
  double fault_corrupt = 0.0;
  bool supervise = false;
  usize fault_disconnect = 0;  // cut each supervised link after N accepted sends
  usize die_round = 0;         // host00 stops pumping at this refresh round
  usize revive_round = 0;      // ... and returns here (0 = die_round + 12)
  bool clear = false;
  bool tasks = false;          // per-task attribution + drill-down view
  std::string keys;            // scripted drill keystrokes, one per refresh
  bool health = false;         // append the introspect health pane per refresh
};

void render_health_pane(const fleet::FleetCollector& collector, const std::string& title) {
  introspect::HealthOptions options;
  options.title = title;
  std::fputs(introspect::render_health(collector.health_rows(), collector.clock(), options)
                 .c_str(),
             stdout);
}

struct HostSession {
  std::string id;
  u32 node_count = 0;
  std::vector<monitor::Sample> samples;
  std::vector<monitor::TaskSample> task_samples;  // --tasks only
  proc::TaskRegistry registry;                    // probe-side identities
};

/// Applies the next scripted keystroke (if any) and renders the drill
/// view; shared by the single-host and both fleet paths.
struct DrillSession {
  proc::DrillDown drill;
  proc::DrillOptions options;
  std::string keys;
  usize next_key = 0;

  DrillSession(bool fleet, bool clear, std::string title, std::string scripted)
      : drill(fleet), keys(std::move(scripted)) {
    options.clear_screen = clear;
    options.title = std::move(title);
  }

  void refresh(const proc::DrillScope& scope) {
    if (next_key < keys.size()) drill.apply_key(keys[next_key++], scope);
    std::fputs(proc::render_drill(drill, scope, options).c_str(), stdout);
  }
};

// Phase 1 of every fleet mode: simulate each probe host and capture its
// telemetry session for replay.
std::vector<HostSession> simulate_hosts(const FleetFlags& flags) {
  std::vector<HostSession> hosts;
  for (usize h = 0; h < flags.hosts; ++h) {
    sim::Machine machine(sim::preset_by_name(flags.preset));
    trace::Run run(machine, {.task_accounting = flags.tasks});
    monitor::SamplerConfig sampler_config;
    sampler_config.period = flags.period;
    sampler_config.ring_capacity = 1 << 16;  // keep the whole session
    monitor::Sampler sampler(machine, run.space(), sampler_config);
    sampler.attach(run.runner());
    monitor::TaskSamplerConfig task_config;
    task_config.period = flags.period;
    task_config.ring_capacity = 1 << 16;
    monitor::TaskSampler task_sampler(machine, task_config);
    if (flags.tasks) task_sampler.attach(run.runner());

    const trace::Program program = workload_by_name(flags.workload, flags.threads);
    HostSession host;
    host.id = util::format("host%02zu", h);
    if (flags.tasks) host.registry.add_program(program);
    run.run(program);
    if (machine.max_clock() > 0) {
      sampler.sample(machine.max_clock());
      if (flags.tasks) task_sampler.sample(machine.max_clock());
    }

    host.node_count = machine.nodes();
    host.samples = sampler.ring().drain();
    if (flags.tasks) host.task_samples = task_sampler.ring().drain();
    // Every host's clock starts at its own arbitrary offset, the way real
    // unsynchronized machines' do; the collector aligns the skew away.
    const Cycles skew = static_cast<Cycles>(h) * (flags.period * 17 + 1013);
    for (monitor::Sample& sample : host.samples) sample.timestamp += skew;
    for (monitor::TaskSample& sample : host.task_samples) sample.timestamp += skew;
    hosts.push_back(std::move(host));
  }
  return hosts;
}

/// Builds the fleet drill scope for one refresh: host labels and task
/// windows from the merged view, names from the drilled host's registry.
proc::DrillScope make_fleet_drill_scope(const fleet::FleetCollector& collector,
                                        const fleet::FleetView& view,
                                        const proc::DrillDown& drill) {
  proc::DrillScope scope;
  scope.hosts.reserve(view.hosts.size());
  scope.host_tasks.reserve(view.hosts.size());
  for (const fleet::HostRow& row : view.hosts) {
    scope.hosts.push_back(row.host_id);
    scope.host_tasks.push_back(row.tasks);
  }
  if (!view.hosts.empty()) {
    const usize selected = std::min(drill.selected_host(), view.hosts.size() - 1);
    scope.tasks = view.hosts[selected].tasks;
    scope.registry = &collector.probe(selected).registry;
  }
  return scope;
}

fleet::FleetViewOptions make_fleet_view_options(const FleetFlags& flags) {
  fleet::FleetViewOptions view_options;
  view_options.clear_screen = flags.clear;
  view_options.title = util::format("npat-fleet — %zux %s on %s%s", flags.hosts,
                                    flags.workload.c_str(), flags.preset.c_str(),
                                    flags.supervise ? " (supervised)" : "");
  return view_options;
}

// Phase 2 (supervised): replay every session through a
// resilience::SupervisedProbe so the streams survive the injected faults.
// Each probe dials the collector over loopback — wrapped in a
// DisconnectingChannel when --fault-disconnect asks for mid-frame cuts,
// then in a FaultyChannel for drop/corrupt noise — and the collector
// reattaches the same probe slot on every redial, deduplicating
// retransmissions by (epoch, seq). The collector clock advances one
// sampling period per refresh round, which drives the per-probe liveness
// column; --die-round parks host00 (no pump, no sends) for a stretch of
// rounds so the view demonstrates a probe dying and returning.
int run_supervised_fleet(const FleetFlags& flags, const std::vector<HostSession>& hosts) {
  resilience::LivenessConfig liveness;
  liveness.stale_after = flags.period * 4;
  liveness.dead_after = flags.period * 12;
  liveness.dwell = 2;
  fleet::FleetCollector collector(liveness);

  struct Link {
    std::unique_ptr<resilience::SupervisedProbe> probe;
    std::vector<std::shared_ptr<util::DisconnectingChannel>> cuts;
    std::vector<std::shared_ptr<util::FaultyChannel>> faults;
    usize slot = 0;
    usize connections = 0;
    usize cursor = 0;
    usize task_cursor = 0;
    bool table_sent = false;
    bool end_sent = false;
  };
  std::vector<std::unique_ptr<Link>> links;  // stable addresses for the dial closures
  for (usize h = 0; h < hosts.size(); ++h) {
    auto link = std::make_unique<Link>();
    Link* raw = link.get();
    auto dial = [raw, h, &collector, &hosts, &flags]() -> std::shared_ptr<util::ByteChannel> {
      auto pair = util::make_loopback_pair();
      if (raw->connections == 0) {
        raw->slot = collector.add_probe(pair.b, hosts[h].id);
      } else {
        collector.reattach_probe(raw->slot, pair.b);
      }
      const usize attempt = raw->connections++;
      std::shared_ptr<util::ByteChannel> channel = pair.a;
      if (flags.fault_disconnect > 0) {
        util::DisconnectingChannel::Config cut;
        cut.cut_after_sends = flags.fault_disconnect;
        cut.cut_delivery_bytes = 9;  // shorter than any frame: one clean truncation per cut
        auto wrapped = std::make_shared<util::DisconnectingChannel>(channel, cut);
        raw->cuts.push_back(wrapped);
        channel = wrapped;
      }
      if (flags.fault_drop > 0.0 || flags.fault_corrupt > 0.0) {
        util::FaultyChannel::Config faults;
        faults.drop_probability = flags.fault_drop;
        faults.corrupt_probability = flags.fault_corrupt;
        faults.seed = 1000 + h * 101 + attempt;
        auto wrapped = std::make_shared<util::FaultyChannel>(channel, faults);
        raw->faults.push_back(wrapped);
        channel = wrapped;
      }
      return channel;
    };
    resilience::SupervisedProbeConfig probe_config;
    probe_config.host_id = hosts[h].id;
    probe_config.node_count = hosts[h].node_count;
    probe_config.heartbeat_interval = flags.period;
    probe_config.resume_timeout = flags.period * 2;
    probe_config.backoff = {.initial = flags.period / 8 + 1,
                            .max = flags.period * 2,
                            .multiplier = 2.0,
                            .jitter = 0.5};
    probe_config.seed = 9000 + h;
    link->probe =
        std::make_unique<resilience::SupervisedProbe>(std::move(probe_config), std::move(dial));
    links.push_back(std::move(link));
  }

  fleet::FleetViewOptions view_options = make_fleet_view_options(flags);
  obs::AlertEngine alerts;
  alerts.add_rule(obs::remote_ratio_rule(view_options.warn_remote_ratio,
                                         view_options.bad_remote_ratio));
  std::vector<phasen::OnlineDetector> phase_detectors(hosts.size());
  std::vector<usize> phase_cursors(hosts.size(), 0);
  view_options.host_phases.resize(hosts.size());

  const usize revive_round = (flags.die_round > 0 && flags.revive_round == 0)
                                 ? flags.die_round + 12
                                 : flags.revive_round;
  DrillSession drill(true, flags.clear,
                     util::format("npat-top/proc — fleet of %zu (supervised)", hosts.size()),
                     flags.keys);
  Cycles now = 0;
  bool done = false;
  for (usize round = 1; !done && round <= 20000; ++round) {
    done = true;
    for (usize h = 0; h < links.size(); ++h) {
      Link& link = *links[h];
      const auto& samples = hosts[h].samples;
      const bool down = h == 0 && flags.die_round > 0 && round >= flags.die_round &&
                        (revive_round == 0 || round < revive_round);
      if (down) {  // the "crashed" probe: no pump, no sends, no heartbeats
        done = false;
        continue;
      }
      link.probe->pump(now);
      if (flags.tasks && !link.table_sent) {
        // Identities ride ahead of the first per-task sample; the replay
        // buffer delivers them exactly once across any reconnects.
        link.probe->send_task_table(hosts[h].registry.to_wire(), now);
        link.table_sent = true;
      }
      for (usize i = 0; i < flags.refresh_every && link.cursor < samples.size();
           ++i, ++link.cursor) {
        link.probe->send_sample(monitor::to_wire(samples[link.cursor]), now);
      }
      for (usize i = 0;
           i < flags.refresh_every && link.task_cursor < hosts[h].task_samples.size();
           ++i, ++link.task_cursor) {
        link.probe->send_task_sample(
            monitor::to_wire_tasks(hosts[h].task_samples[link.task_cursor],
                                   hosts[h].registry.task_ids()),
            now);
      }
      if (link.cursor >= samples.size() && link.task_cursor >= hosts[h].task_samples.size() &&
          !link.end_sent) {
        link.probe->send_end(samples.empty() ? 0 : samples.back().timestamp, now);
        link.end_sent = true;
      }
      if (!(link.end_sent && link.probe->fully_acked())) done = false;
    }
    collector.poll(now);
    for (usize h = 0; h < links.size(); ++h) {
      const auto& merged = collector.probe(links[h]->slot).samples;
      for (; phase_cursors[h] < merged.size(); ++phase_cursors[h]) {
        phase_detectors[h].push(merged[phase_cursors[h]]);
      }
      view_options.host_phases[h] = phase_detectors[h].phase_label();
    }
    const fleet::FleetView view = collector.view();
    if (flags.tasks) {
      drill.refresh(make_fleet_drill_scope(collector, view, drill.drill));
    } else {
      view_options.host_alerts = fleet::evaluate_host_alerts(alerts, view);
      std::fputs(fleet::render_fleet_view(view, view_options).c_str(), stdout);
    }
    if (flags.health) render_health_pane(collector, "npat-health — supervised fleet");
    if (!done) std::fputs("\n", stdout);
    now += flags.period;
  }

  const fleet::ProbeDamage damage = collector.view().damage_total();
  usize data = 0, control = 0, retrans = 0, reconnects = 0, dials = 0, heartbeats = 0,
        evictions = 0;
  usize cut_frames = 0, stall_discards = 0, dropped_in_transit = 0, corrupted = 0;
  u64 delivered = 0, duplicates = 0;
  for (const auto& link : links) {
    data += link->probe->data_transmissions();
    control += link->probe->control_transmissions();
    retrans += link->probe->retransmissions();
    reconnects += link->probe->reconnects();
    dials += link->probe->dial_attempts();
    heartbeats += link->probe->heartbeats_sent();
    evictions += link->probe->evictions();
    for (const auto& cut : link->cuts) {
      cut_frames += cut->cut_frames();
      stall_discards += cut->stall_discards();
    }
    for (const auto& faulty : link->faults) {
      dropped_in_transit += faulty->dropped_sends();
      corrupted += faulty->corrupted_sends();
    }
    const fleet::ProbeState& state = collector.probe(link->slot);
    delivered += state.delivered_frames;
    duplicates += state.duplicate_frames;
  }
  std::printf(
      "\nsupervised replay complete: %zu hosts, %zu sequenced frames accepted "
      "(%zu retransmissions), %llu delivered exactly once, %llu duplicates suppressed\n",
      hosts.size(), data, retrans, static_cast<unsigned long long>(delivered),
      static_cast<unsigned long long>(duplicates));
  std::printf("links: %zu dial attempts, %zu reconnects, %zu control frames, %zu heartbeats, "
              "%zu replay evictions\n",
              dials, reconnects, control, heartbeats, evictions);
  std::printf(
      "transport damage: %zu cut mid-frame, %zu discarded in stalls, %zu dropped in transit, "
      "%zu corrupted, %zu rejected by decoders (%zu resyncs, %zu EOF truncations), "
      "%zu unexpected frames\n",
      cut_frames, stall_discards, dropped_in_transit, corrupted, damage.dropped_frames,
      damage.resyncs, damage.truncated_flushes, damage.unexpected_frames);
  if (flags.tasks) {
    std::printf("per-task telemetry: %zu rows orphaned before registration, %zu attributed late\n",
                damage.orphaned_task_rows, damage.orphans_attributed);
  }
  if (!alerts.transitions().empty()) {
    std::printf("\nalert transitions:\n%s", alerts.render_transitions().c_str());
  }
  return done ? 0 : 1;
}

int run_fleet(const FleetFlags& flags) {
  const std::vector<HostSession> hosts = simulate_hosts(flags);
  if (flags.supervise) return run_supervised_fleet(flags, hosts);

  // Phase 2: replay every session concurrently over loopback — through
  // fault injection when requested — into the fleet collector, refreshing
  // the merged view as the streams interleave.
  fleet::FleetCollector collector;
  struct Link {
    std::shared_ptr<util::FaultyChannel> tx;
    memhist::Probe probe;
    usize cursor = 0;
    usize task_cursor = 0;
  };
  std::vector<Link> links;
  for (usize h = 0; h < hosts.size(); ++h) {
    auto pair = util::make_loopback_pair();
    util::FaultyChannel::Config faults;
    faults.drop_probability = flags.fault_drop;
    faults.corrupt_probability = flags.fault_corrupt;
    faults.seed = 1000 + h;
    auto tx = std::make_shared<util::FaultyChannel>(pair.a, faults);
    collector.add_probe(pair.b);
    Link link{tx, memhist::Probe(tx), 0, 0};
    // With --health the plain probes opt into sampled emit stamping, so
    // the pane's latency column measures the loopback hop end to end.
    if (flags.health) link.probe.set_stamp_interval(4);
    link.probe.send_hello(hosts[h].node_count, hosts[h].id);
    if (flags.tasks) link.probe.send_task_table(hosts[h].registry.to_wire());
    links.push_back(std::move(link));
  }

  fleet::FleetViewOptions view_options = make_fleet_view_options(flags);
  obs::AlertEngine alerts;
  alerts.add_rule(obs::remote_ratio_rule(view_options.warn_remote_ratio,
                                         view_options.bad_remote_ratio));

  // One online Phasenprüfer per probe stream: detection runs on what the
  // collector actually *received* (post transport damage), the same data
  // the per-host rows render. The collector has already aligned each
  // host's clock to origin 0.
  std::vector<phasen::OnlineDetector> phase_detectors(hosts.size());
  std::vector<usize> phase_cursors(hosts.size(), 0);
  view_options.host_phases.resize(hosts.size());

  DrillSession drill(true, flags.clear,
                     util::format("npat-top/proc — fleet of %zu", hosts.size()), flags.keys);
  Cycles wall = 0;  // largest timestamp sent so far; drives the health pane's clock
  for (bool sending = true; sending;) {
    sending = false;
    for (usize h = 0; h < links.size(); ++h) {
      Link& link = links[h];
      const auto& samples = hosts[h].samples;
      const auto& task_samples = hosts[h].task_samples;
      for (usize i = 0; i < flags.refresh_every && link.cursor < samples.size();
           ++i, ++link.cursor) {
        const monitor::Sample& sample = samples[link.cursor];
        if (flags.health) {
          link.probe.set_clock(sample.timestamp);
          wall = std::max(wall, sample.timestamp);
        }
        link.probe.send_sample(monitor::to_wire(sample));
      }
      for (usize i = 0; i < flags.refresh_every && link.task_cursor < task_samples.size();
           ++i, ++link.task_cursor) {
        if (flags.health) link.probe.set_clock(task_samples[link.task_cursor].timestamp);
        link.probe.send_task_sample(
            monitor::to_wire_tasks(task_samples[link.task_cursor], hosts[h].registry.task_ids()));
      }
      if (link.cursor < samples.size() || link.task_cursor < task_samples.size()) {
        sending = true;
      } else if (!link.tx->closed()) {
        link.probe.send_end(samples.empty() ? 0 : samples.back().timestamp);
        link.tx->close();
      }
    }
    collector.poll(flags.health ? wall : 0);
    for (usize h = 0; h < hosts.size(); ++h) {
      const auto& merged = collector.probe(h).samples;
      for (; phase_cursors[h] < merged.size(); ++phase_cursors[h]) {
        phase_detectors[h].push(merged[phase_cursors[h]]);
      }
      view_options.host_phases[h] = phase_detectors[h].phase_label();
    }
    const fleet::FleetView view = collector.view();
    if (flags.tasks) {
      drill.refresh(make_fleet_drill_scope(collector, view, drill.drill));
    } else {
      view_options.host_alerts = fleet::evaluate_host_alerts(alerts, view);
      std::fputs(fleet::render_fleet_view(view, view_options).c_str(), stdout);
    }
    if (flags.health) render_health_pane(collector, "npat-health — fleet");
    if (sending) std::fputs("\n", stdout);
  }

  const fleet::ProbeDamage damage = collector.view().damage_total();
  usize sent = 0, failures = 0, dropped_in_transit = 0, corrupted = 0;
  for (const Link& link : links) {
    sent += link.probe.frames_sent();
    failures += link.probe.send_failures();
    dropped_in_transit += link.tx->dropped_sends();
    corrupted += link.tx->corrupted_sends();
  }
  std::printf(
      "\nfleet replay complete: %zu hosts, %zu frames sent (%zu send failures), "
      "%zu samples merged\n",
      hosts.size(), sent, failures, collector.samples_merged());
  std::printf(
      "transport damage: %zu dropped in transit, %zu corrupted, %zu rejected by decoders "
      "(%zu resyncs, %zu EOF truncations), %zu unexpected frames\n",
      dropped_in_transit, corrupted, damage.dropped_frames, damage.resyncs,
      damage.truncated_flushes, damage.unexpected_frames);
  if (flags.tasks) {
    std::printf("per-task telemetry: %zu rows orphaned before registration, %zu attributed late\n",
                damage.orphaned_task_rows, damage.orphans_attributed);
  }
  if (!alerts.transitions().empty()) {
    std::printf("\nalert transitions:\n%s", alerts.render_transitions().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload = "sort";
  std::string preset = "dual";
  std::string csv_path;
  std::string json_path;
  std::string wire_path;
  std::string trace_path;
  i64 threads = 4;
  i64 period = 50000;
  i64 refresh_every = 4;
  i64 read_cost = 0;
  i64 fleet = 0;
  double fault_drop = 0.0;
  double fault_corrupt = 0.0;
  bool supervise = false;
  i64 fault_disconnect = 0;
  i64 die_round = 0;
  i64 revive_round = 0;
  bool clear = false;
  bool tasks = false;
  std::string keys;
  std::string csv_tasks_path;
  std::string json_tasks_path;
  std::string wire_tasks_path;
  bool health = false;
  bool advise = false;
  bool trust = false;
  std::string prom_path;
  std::string metrics_json_path;
  std::string flight_path;

  util::Cli cli("npat top — live per-node NUMA telemetry for a running workload");
  cli.add_flag("workload", &workload, "sort | mlc | stream | gups | rampup");
  cli.add_flag("preset", &preset, "machine preset (dl580, dual, uma, cube8)");
  cli.add_flag("threads", &threads, "worker threads for parallel workloads");
  cli.add_flag("period", &period, "sampling period in simulated cycles");
  cli.add_flag("refresh-every", &refresh_every, "sampling periods per view refresh");
  cli.add_flag("read-cost", &read_cost, "simulated cycles charged per sample (models an agent)");
  cli.add_flag("fleet", &fleet, "simulate N probe hosts and render the merged fleet view");
  cli.add_flag("fault-drop", &fault_drop, "fleet mode: per-frame drop probability in transit");
  cli.add_flag("fault-corrupt", &fault_corrupt, "fleet mode: per-frame corruption probability");
  cli.add_flag("supervise", &supervise,
               "fleet mode: replay through supervised probes (v4 resume protocol)");
  cli.add_flag("fault-disconnect", &fault_disconnect,
               "supervised fleet: cut each connection after N accepted frames (0 = never)");
  cli.add_flag("die-round", &die_round,
               "supervised fleet: host00 stops pumping at this refresh round (0 = never)");
  cli.add_flag("revive-round", &revive_round,
               "supervised fleet: host00 returns at this round (0 = die-round + 12)");
  cli.add_flag("clear", &clear, "ANSI clear-screen between refreshes (live top feel)");
  cli.add_flag("tasks", &tasks,
               "per-task attribution + numatop-style drill-down (node > process > thread > area)");
  cli.add_flag("keys", &keys,
               "scripted drill keystrokes, one per refresh ('.' = no-op; needs --tasks)");
  cli.add_flag("csv-tasks", &csv_tasks_path, "dump per-task samples as CSV to this path");
  cli.add_flag("json-tasks", &json_tasks_path, "dump per-task samples as JSON to this path");
  cli.add_flag("wire-tasks", &wire_tasks_path,
               "dump the per-task session as a v5 wire stream to this path");
  cli.add_flag("health", &health,
               "append the pipeline self-observability pane (hop latency, depths, damage)");
  cli.add_flag("advise", &advise,
               "append the placement-advisor pane: rank placements, apply the best and rerun");
  cli.add_flag("trust", &trust,
               "run the counter trust harness first, degrade untrusted events downstream, "
               "and append the trust pane");
  cli.add_flag("prom", &prom_path, "export self-metrics as Prometheus text to this path");
  cli.add_flag("metrics-json", &metrics_json_path, "export self-metrics as JSON to this path");
  cli.add_flag("flight", &flight_path,
               "dump the flight-recorder ring as JSON to this path (also on fatal error)");
  cli.add_flag("csv", &csv_path, "dump all samples as CSV to this path");
  cli.add_flag("json", &json_path, "dump all samples as JSON to this path");
  cli.add_flag("wire", &wire_path, "dump the session as a wire stream to this path");
  cli.add_flag("trace", &trace_path, "dump a Chrome trace (about:tracing) to this path");

  try {
    if (const auto rc = cli.parse_main(argc, argv)) return *rc;
    util::set_ansi_enabled(::isatty(STDOUT_FILENO) == 1);  // colour cues on a terminal only
    // Arm the black box before anything can crash: committed alert
    // transitions land in the flight ring, and a std::terminate dumps the
    // ring so the last events before a crash survive it.
    introspect::install_alert_hook();
    introspect::install_terminate_dump("npat_flight_fatal.json");
    if (period <= 0 || refresh_every <= 0) throw util::CliError("period/refresh-every must be > 0");
    if (fleet < 0 || fault_drop < 0.0 || fault_drop > 1.0 || fault_corrupt < 0.0 ||
        fault_corrupt > 1.0) {
      throw util::CliError("--fleet must be >= 0 and fault probabilities within [0, 1]");
    }
    if ((supervise || fault_disconnect > 0 || die_round > 0) && fleet <= 0) {
      throw util::CliError("--supervise/--fault-disconnect/--die-round require --fleet=N");
    }
    if (fault_disconnect > 0 && !supervise) {
      throw util::CliError("--fault-disconnect needs --supervise (a plain probe cannot resume)");
    }
    if (fault_disconnect != 0 && fault_disconnect < 4) {
      // Each reconnect spends Hello + Resume before data flows, and the
      // fatal frame is truncated; below 4 no connection ever delivers.
      throw util::CliError("--fault-disconnect must be 0 or >= 4");
    }
    if (die_round < 0 || revive_round < 0 || (revive_round > 0 && revive_round <= die_round)) {
      throw util::CliError("--revive-round must be 0 or later than --die-round");
    }
    if (!keys.empty() && !tasks) throw util::CliError("--keys needs --tasks (it drives the drill)");
    if (!tasks && (!csv_tasks_path.empty() || !json_tasks_path.empty() ||
                   !wire_tasks_path.empty())) {
      throw util::CliError("--csv-tasks/--json-tasks/--wire-tasks need --tasks");
    }
    if (fleet > 0 && (!csv_tasks_path.empty() || !json_tasks_path.empty() ||
                      !wire_tasks_path.empty())) {
      throw util::CliError("task export flags are single-host only (fleet streams them as v5)");
    }
    if (advise && fleet > 0) {
      throw util::CliError("--advise is single-host only (it replays the workload locally)");
    }
    if (trust && fleet > 0) {
      throw util::CliError("--trust is single-host only (it validates the local machine model)");
    }

    // --trust: refute the counters before trusting the telemetry built on
    // them. The published report degrades downstream consumers process-wide
    // (evsel comparisons quarantine refuted events, the advisor falls back
    // to the uncore when a primary is below bounded).
    std::optional<validate::SuiteResult> trust_result;
    if (trust) {
      validate::SuiteOptions suite_options;
      suite_options.machine_name = preset;
      trust_result = validate::run_suite(sim::preset_by_name(preset), suite_options);
      validate::set_active_trust_report(trust_result->report);
      std::printf("trust harness: %zu checks, %zu failed (%zu events validated)\n",
                  trust_result->checks_run(), trust_result->checks_failed(),
                  trust_result->report.validated_events());
    }
    if (fleet > 0) {
      FleetFlags flags;
      flags.hosts = static_cast<usize>(fleet);
      flags.workload = workload;
      flags.preset = preset;
      flags.threads = static_cast<u32>(threads);
      flags.period = static_cast<Cycles>(period);
      flags.refresh_every = static_cast<usize>(refresh_every);
      flags.fault_drop = fault_drop;
      flags.fault_corrupt = fault_corrupt;
      flags.supervise = supervise;
      flags.fault_disconnect = static_cast<usize>(fault_disconnect);
      flags.die_round = static_cast<usize>(die_round);
      flags.revive_round = static_cast<usize>(revive_round);
      flags.clear = clear;
      flags.tasks = tasks;
      flags.keys = keys;
      flags.health = health;
      const int code = run_fleet(flags);
      write_self_exports(prom_path, metrics_json_path, flight_path);
      return code;
    }

    sim::Machine machine(sim::preset_by_name(preset));
    trace::Run run(machine, {.task_accounting = tasks});

    monitor::SamplerConfig sampler_config;
    sampler_config.period = static_cast<Cycles>(period);
    sampler_config.read_cost_cycles = static_cast<Cycles>(read_cost);
    monitor::Sampler sampler(machine, run.space(), sampler_config);
    sampler.attach(run.runner());

    monitor::TaskSamplerConfig task_config;
    task_config.period = static_cast<Cycles>(period);
    monitor::TaskSampler task_sampler(machine, task_config);
    if (tasks) task_sampler.attach(run.runner());
    proc::TaskRegistry registry;

    // --health: an internal stamped loopback probe routes every drained
    // sample through a FleetCollector, so even the single-host pipeline
    // observes its own hop latency, stage depths and decode rate.
    std::unique_ptr<fleet::FleetCollector> health_collector;
    std::unique_ptr<memhist::Probe> health_probe;
    if (health) {
      health_collector = std::make_unique<fleet::FleetCollector>();
      auto pair = util::make_loopback_pair();
      health_collector->add_probe(pair.b, "local");
      health_probe = std::make_unique<memhist::Probe>(pair.a);
      health_probe->set_stamp_interval(4);
      health_probe->send_hello(machine.nodes(), "local");
    }
    DrillSession drill(false, clear,
                       util::format("npat-top/proc — %s on %s", workload.c_str(), preset.c_str()),
                       keys);

    monitor::ViewOptions view_options;
    view_options.clear_screen = clear;
    view_options.title = util::format("npat-top — %s on %s", workload.c_str(), preset.c_str());

    // The view's ok/warn/bad cues come from the alert engine (hysteresis
    // included), seeded with the same thresholds the colours used to apply
    // inline.
    obs::AlertEngine alerts;
    alerts.add_rule(obs::remote_ratio_rule(view_options.warn_remote_ratio,
                                           view_options.bad_remote_ratio));

    const trace::Program program = workload_by_name(workload, static_cast<u32>(threads));
    if (tasks) registry.add_program(program);

    monitor::TieredHistory tiers;
    std::vector<monitor::Sample> session;       // every sample, for the export paths
    std::vector<monitor::TaskSample> task_session;  // every per-task sample (--tasks)
    std::vector<monitor::WindowStats> windows;  // one per refresh, for the sparkline
    // Online Phasenprüfer: every sample's footprint feeds the incremental
    // pivot scan, and the view's Phase column flips from ramp-up to compute
    // once a boundary survives the dwell.
    phasen::OnlineDetector phase_detector;

    const auto refresh = [&](bool final_flush) {
      auto batch = sampler.ring().drain();
      if (batch.empty()) return;
      for (const monitor::Sample& sample : batch) {
        tiers.add(sample);
        phase_detector.push(sample);
      }
      session.insert(session.end(), batch.begin(), batch.end());
      windows.push_back(monitor::aggregate(batch));
      view_options.node_alerts = monitor::evaluate_node_alerts(alerts, windows.back());
      view_options.phase_label = phase_detector.phase_label();
      if (tasks) {
        auto task_batch = task_sampler.ring().drain();
        task_session.insert(task_session.end(), task_batch.begin(), task_batch.end());
        proc::DrillScope scope;
        scope.nodes = &windows.back();
        scope.tasks = monitor::aggregate_tasks(task_session);
        scope.registry = &registry;
        drill.refresh(scope);
      } else {
        std::fputs(monitor::render_view(windows.back(), windows, view_options).c_str(), stdout);
      }
      if (health_probe) {
        for (const monitor::Sample& sample : batch) {
          health_probe->set_clock(sample.timestamp);
          health_probe->send_sample(monitor::to_wire(sample));
        }
        health_collector->poll(machine.max_clock());
        render_health_pane(*health_collector, "npat-health — local pipeline");
      }
      if (!final_flush) std::fputs("\n", stdout);
    };
    // Registered *after* the sampler's own hook, so every refresh tick sees
    // the periods it covers already in the ring.
    run.runner().add_sampler(sampler_config.period * static_cast<Cycles>(refresh_every),
                             [&](Cycles) { refresh(false); });

    const auto result = run.run(program);
    // Flush the tail past the last periodic tick, then render what's left.
    if (machine.max_clock() > 0) {
      sampler.sample(machine.max_clock());
      if (tasks) task_sampler.sample(machine.max_clock());
    }
    refresh(true);
    if (health_probe) {
      // Close the internal stream and show the converged (ended) state.
      health_probe->send_end(machine.max_clock());
      health_collector->poll(machine.max_clock());
      render_health_pane(*health_collector, "npat-health — local pipeline (final)");
    }

    const monitor::NodeStats total = monitor::aggregate(session).total();
    std::printf(
        "\nrun complete: %s cycles, %llu samples (%llu dropped), "
        "remote ratio %.1f%% over the whole run\n",
        util::si_scaled(static_cast<double>(result.duration)).c_str(),
        static_cast<unsigned long long>(sampler.samples_taken()),
        static_cast<unsigned long long>(sampler.ring().dropped()),
        100.0 * total.remote_ratio());
    if (phase_detector.published()) {
      const auto& event = phase_detector.events().back();
      std::printf(
          "phase boundary: sample %zu at t=%s cycles (published on scan %llu of %llu, "
          "%zu transition event%s)\n",
          phase_detector.published_pivot(),
          util::si_scaled(static_cast<double>(phase_detector.published_pivot_time())).c_str(),
          static_cast<unsigned long long>(event.scan),
          static_cast<unsigned long long>(phase_detector.scans()),
          phase_detector.events().size(), phase_detector.events().size() == 1 ? "" : "s");
    } else {
      std::printf("no phase boundary published (%llu pivot scans)\n",
                  static_cast<unsigned long long>(phase_detector.scans()));
    }
    if (!alerts.transitions().empty()) {
      std::printf("\nalert transitions:\n%s", alerts.render_transitions().c_str());
    }

    // --trust: the counter trust pane — per-event tiers with the deciding
    // kernel, exact rows folded to keep the live view compact.
    if (trust_result) {
      std::puts("");
      std::fputs(validate::render_trust_table(trust_result->report, /*include_exact=*/false)
                     .c_str(),
                 stdout);
    }

    // --advise: the apply-and-rerun pane. The advisor profiles the same
    // workload on the same machine preset, ranks candidate placements from
    // the counter signature, replays the best under a policy override, and
    // prints the before/after verdict right below the live view.
    if (advise) {
      advisor::Advisor adv(sim::preset_by_name(preset));
      advisor::AdvisorOptions advise_options;
      advise_options.baseline.affinity = run.runner().config().affinity;
      advise_options.sample_period = static_cast<Cycles>(period);
      const auto rec = adv.advise(
          [&] { return workload_by_name(workload, static_cast<u32>(threads)); },
          advise_options);
      std::puts("");
      std::fputs(advisor::render_recommendation(rec).c_str(), stdout);
    }

    if (!csv_path.empty()) {
      const std::string csv = monitor::to_csv(session);
      write_file(csv_path, csv.data(), csv.size());
      std::printf("wrote %s (%s)\n", csv_path.c_str(), util::human_bytes(csv.size()).c_str());
    }
    if (!json_path.empty()) {
      const std::string json = monitor::to_json(session).dump(2);
      write_file(json_path, json.data(), json.size());
      std::printf("wrote %s (%s)\n", json_path.c_str(), util::human_bytes(json.size()).c_str());
    }
    if (!wire_path.empty()) {
      const auto bytes = monitor::encode_stream(session);
      write_file(wire_path, bytes.data(), bytes.size());
      std::printf("wrote %s (%s)\n", wire_path.c_str(), util::human_bytes(bytes.size()).c_str());
    }
    if (!csv_tasks_path.empty()) {
      const std::string csv = monitor::to_csv_tasks(task_session, registry.name_table());
      write_file(csv_tasks_path, csv.data(), csv.size());
      std::printf("wrote %s (%s)\n", csv_tasks_path.c_str(),
                  util::human_bytes(csv.size()).c_str());
    }
    if (!json_tasks_path.empty()) {
      const std::string json = monitor::to_json_tasks(task_session, registry.name_table()).dump(2);
      write_file(json_tasks_path, json.data(), json.size());
      std::printf("wrote %s (%s)\n", json_tasks_path.c_str(),
                  util::human_bytes(json.size()).c_str());
    }
    if (!wire_tasks_path.empty()) {
      const auto bytes = monitor::encode_task_stream(task_session, registry.name_table());
      write_file(wire_tasks_path, bytes.data(), bytes.size());
      std::printf("wrote %s (%s)\n", wire_tasks_path.c_str(),
                  util::human_bytes(bytes.size()).c_str());
    }
    if (!trace_path.empty()) {
      const std::string trace = obs::tracer().chrome_trace().dump(2);
      write_file(trace_path, trace.data(), trace.size());
      std::printf("wrote %s (%s) — open in chrome://tracing or Perfetto\n", trace_path.c_str(),
                  util::human_bytes(trace.size()).c_str());
    }
    write_self_exports(prom_path, metrics_json_path, flight_path);
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "npat_top: %s\n", error.what());
    // The fatal-error path still leaves the black box behind.
    if (!flight_path.empty()) introspect::flight().dump(flight_path);
    return 1;
  }
}
