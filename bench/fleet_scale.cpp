// Fleet-scale ingest: can one collector sustain 1k-10k probes?
//
// The harness replays a deterministic simulated fleet into one
// FleetCollector: one third plain v3 probes over a lossy FaultyChannel,
// one third supervised v4 probes that redial through a
// DisconnectingChannel (mid-frame cuts, retransmission, (epoch, seq)
// dedup), and one third v6 emit-stamped probes feeding the hop-latency
// histograms. Every per-probe outcome that the fleet view, health pane,
// and self-metrics surface can observe — the merged sample timeline,
// damage ledger, delivery-ledger mirror, and ingest accounting — is
// folded into one FNV digest, printed and reported with the frame and
// merged-sample counts so a change to the collector's observable state
// shows up as a different digest.
//
// Gates (CI): frames/sec >= --throughput-floor, and worst per-probe
// ingest p99 <= --p99-ceiling simulated cycles with no histogram
// overflow. Results land in BENCH_fleet.json so
// scripts/bench_trajectory.py archives the trajectory.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "fleet/collector.hpp"
#include "introspect/health.hpp"
#include "memhist/remote.hpp"
#include "obs/obs.hpp"
#include "resilience/probe.hpp"
#include "util/channel.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/random.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace npat;

constexpr Cycles kPeriod = 500;       // simulated cycles between samples
constexpr usize kBatch = 4;           // samples sent per probe per round
constexpr usize kDrainRounds = 128;   // extra rounds for supervised acks

memhist::wire::MonitorSampleMsg make_sample(util::Xoshiro256ss& rng, usize index, u32 nodes) {
  memhist::wire::MonitorSampleMsg sample;
  sample.timestamp = 1000 + static_cast<Cycles>(index) * kPeriod;
  sample.footprint_bytes = (64u << 20) + rng.below(16u << 20);
  for (u32 node = 0; node < nodes; ++node) {
    memhist::wire::MonitorNodeCounters row;
    row.instructions = 1000 + rng.below(5000);
    row.cycles = 2000 + rng.below(8000);
    row.local_dram = rng.below(500);
    row.remote_dram = rng.below(200);
    row.remote_hitm = rng.below(50);
    row.imc_reads = rng.below(800);
    row.imc_writes = rng.below(400);
    row.qpi_flits = rng.below(1000);
    row.resident_bytes = (16u << 20) + rng.below(4u << 20);
    sample.nodes.push_back(row);
  }
  return sample;
}

/// Everything about the run that downstream surfaces can observe,
/// folded per probe: timeline, damage, ledger mirror, ingest accounting.
u64 digest_probe(u64 hash, const fleet::ProbeState& state) {
  auto mix = [&hash](u64 value) {
    hash ^= value;
    hash *= 1099511628211ull;
  };
  for (const monitor::Sample& sample : state.samples) {
    mix(sample.timestamp);
    mix(sample.footprint_bytes);
    for (const monitor::NodeSample& node : sample.nodes) {
      mix(node.instructions);
      mix(node.cycles);
      mix(node.local_dram);
      mix(node.remote_dram);
      mix(node.imc_reads + node.imc_writes + node.qpi_flits + node.resident_bytes);
    }
  }
  mix(state.damage.dropped_frames);
  mix(state.damage.resyncs);
  mix(state.damage.truncated_flushes);
  mix(state.damage.unexpected_frames);
  mix(state.epoch);
  mix(state.seq_floor);
  mix(state.highest_seq);
  mix(state.gap_backlog);
  mix(state.delivered_frames);
  mix(state.duplicate_frames);
  mix(state.epoch_resets);
  mix(state.heartbeats);
  mix(state.hellos);
  mix(state.resumes);
  mix(state.acks_sent);
  mix(state.pipeline.frames);
  mix(state.pipeline.stamped_frames);
  mix(state.pipeline.ingest_observations);
  mix(state.pipeline.ingest_max);
  mix(state.pipeline.reorder_observations);
  mix(state.pipeline.reorder_max);
  mix(state.ended ? 1 : 0);
  return hash;
}

struct FleetStats {
  double wall_ms = 0.0;        // streaming loop only, setup excluded
  u64 frames = 0;              // CRC-valid frames decoded, all probes
  u64 delivered = 0;           // exactly-once sequenced deliveries
  u64 duplicates = 0;          // retransmissions suppressed
  usize merged_samples = 0;
  usize damage_total = 0;      // dropped + resyncs + truncated + unexpected
  u64 digest = 0;              // fold of digest_probe over every probe
  double p99_worst = 0.0;      // worst per-probe ingest p99 (cycles)
  bool p99_overflow = false;   // any probe's p99 landed in +Inf
  u64 ingest_observations = 0;
};

enum class Kind { kPlain, kSupervised, kStamped };
Kind kind_of(usize index) { return static_cast<Kind>(index % 3); }

FleetStats run_fleet(usize probes, usize samples_per_probe, u32 nodes, u64 seed) {
  obs::EnabledGuard obs_guard(true);
  fleet::FleetCollector collector;

  struct PlainLink {
    std::shared_ptr<util::FaultyChannel> tx;
    std::unique_ptr<memhist::Probe> probe;
    usize cursor = 0;
    bool ended = false;
  };
  struct SupLink {
    std::unique_ptr<resilience::SupervisedProbe> probe;
    usize slot = 0;
    usize connections = 0;
    usize cursor = 0;
    bool end_sent = false;
  };
  std::vector<PlainLink> plain(probes);   // indexed by probe, unused slots empty
  std::vector<std::unique_ptr<SupLink>> supervised(probes);

  for (usize h = 0; h < probes; ++h) {
    const std::string host = util::format("host%06zu", h);
    if (kind_of(h) == Kind::kSupervised) {
      auto link = std::make_unique<SupLink>();
      SupLink* raw = link.get();
      auto dial = [raw, h, seed, &collector, host]() -> std::shared_ptr<util::ByteChannel> {
        auto pair = util::make_loopback_pair();
        if (raw->connections == 0) {
          raw->slot = collector.add_probe(pair.b, host);
        } else {
          collector.reattach_probe(raw->slot, pair.b);
        }
        const usize attempt = raw->connections++;
        util::DisconnectingChannel::Config cut;
        cut.cut_after_sends = 10;
        cut.cut_delivery_bytes = 9;  // shorter than any frame: one clean truncation
        auto cut_channel = std::make_shared<util::DisconnectingChannel>(pair.a, cut);
        util::FaultyChannel::Config faults;
        faults.drop_probability = 0.01;
        faults.seed = seed + h * 101 + attempt;
        return std::make_shared<util::FaultyChannel>(cut_channel, faults);
      };
      resilience::SupervisedProbeConfig probe_config;
      probe_config.host_id = host;
      probe_config.node_count = nodes;
      probe_config.heartbeat_interval = 1u << 30;  // data frames only
      probe_config.resume_timeout = kPeriod * 2;
      probe_config.backoff = {.initial = kPeriod / 8 + 1,
                              .max = kPeriod * 2,
                              .multiplier = 2.0,
                              .jitter = 0.5};
      probe_config.seed = seed + 9000 + h;
      link->probe =
          std::make_unique<resilience::SupervisedProbe>(std::move(probe_config), std::move(dial));
      supervised[h] = std::move(link);
    } else {
      auto pair = util::make_loopback_pair();
      util::FaultyChannel::Config faults;
      // Plain v3 streams take the corruption chaos (CRC rejects, resyncs);
      // the stamped v6 streams stay clean so p99 measures queueing, not
      // damage recovery.
      faults.drop_probability = kind_of(h) == Kind::kPlain ? 0.02 : 0.0;
      faults.corrupt_probability = kind_of(h) == Kind::kPlain ? 0.01 : 0.0;
      faults.seed = seed + h * 101;
      auto tx = std::make_shared<util::FaultyChannel>(pair.a, faults);
      collector.add_probe(pair.b, host);
      PlainLink& link = plain[h];
      link.tx = tx;
      link.probe = std::make_unique<memhist::Probe>(tx);
      // Interval 3 against a batch of 4 makes the stamped position drift
      // through the batch, so per-frame queueing lag actually varies.
      if (kind_of(h) == Kind::kStamped) link.probe->set_stamp_interval(3);
      link.probe->send_hello(nodes, host);
    }
  }

  const auto start = std::chrono::steady_clock::now();
  Cycles wall = 0;
  const usize data_rounds = (samples_per_probe + kBatch - 1) / kBatch;
  for (usize round = 0; round < data_rounds + kDrainRounds; ++round) {
    bool busy = false;
    for (usize h = 0; h < probes; ++h) {
      // Every probe replays the same deterministic sample stream; the rng
      // is re-seeded per (probe, batch) so every run sees identical bytes.
      util::Xoshiro256ss rng(seed ^ (h * 0x9e3779b97f4a7c15ull) ^ round);
      if (kind_of(h) == Kind::kSupervised) {
        SupLink& link = *supervised[h];
        link.probe->pump(wall);
        for (usize i = 0; i < kBatch && link.cursor < samples_per_probe; ++i, ++link.cursor) {
          const auto sample = make_sample(rng, link.cursor, nodes);
          wall = std::max(wall, sample.timestamp);
          link.probe->send_sample(sample, wall);
        }
        if (link.cursor >= samples_per_probe && !link.end_sent) {
          link.probe->send_end(1000 + samples_per_probe * kPeriod, wall);
          link.end_sent = true;
        }
        if (!(link.end_sent && link.probe->fully_acked())) busy = true;
      } else {
        PlainLink& link = plain[h];
        for (usize i = 0; i < kBatch && link.cursor < samples_per_probe; ++i, ++link.cursor) {
          const auto sample = make_sample(rng, link.cursor, nodes);
          wall = std::max(wall, sample.timestamp);
          link.probe->set_clock(sample.timestamp);
          link.probe->send_sample(sample);
        }
        if (link.cursor < samples_per_probe) {
          busy = true;
        } else if (!link.ended) {
          link.probe->send_end(1000 + samples_per_probe * kPeriod);
          link.tx->close();
          link.ended = true;
        }
      }
    }
    collector.poll(wall);
    if (!busy && round >= data_rounds) break;
    wall += kPeriod;
  }
  const auto stop = std::chrono::steady_clock::now();

  FleetStats stats;
  stats.wall_ms = std::chrono::duration<double, std::milli>(stop - start).count();
  stats.digest = 14695981039346656037ull;
  for (usize h = 0; h < probes; ++h) {
    const fleet::ProbeState& state = collector.probe(h);
    stats.frames += state.pipeline.frames;
    stats.delivered += state.delivered_frames;
    stats.duplicates += state.duplicate_frames;
    stats.merged_samples += state.samples.size();
    stats.damage_total += state.damage.total() + state.damage.resyncs +
                          state.damage.truncated_flushes;
    stats.digest = digest_probe(stats.digest, state);
    stats.ingest_observations += state.pipeline.ingest_observations;
    if (state.pipeline.ingest_observations > 0) {
      stats.p99_worst = std::max(stats.p99_worst, state.pipeline.ingest_p99);
      stats.p99_overflow = stats.p99_overflow || state.pipeline.ingest_p99_overflow;
    }
  }
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  i64 probes = 1000;
  i64 samples = 12;
  i64 nodes = 2;
  double throughput_floor = 20000.0;  // frames/sec
  i64 p99_ceiling = 100000;           // simulated cycles
  std::string out = "BENCH_fleet.json";

  util::Cli cli("Fleet-scale ingest: collector throughput, p99 latency, state digest");
  cli.add_flag("probes", &probes, "simulated probe hosts (v3/v4/v6 mix)");
  cli.add_flag("samples", &samples, "monitor samples streamed per probe");
  cli.add_flag("nodes", &nodes, "NUMA nodes per telemetry sample");
  cli.add_flag("throughput-floor", &throughput_floor,
               "minimum acceptable decode rate in frames/sec (0 = report only)");
  cli.add_flag("p99-ceiling", &p99_ceiling,
               "maximum acceptable per-probe ingest p99 in simulated cycles");
  cli.add_flag("out", &out, "path for the BENCH_fleet.json report");
  if (const auto rc = cli.parse_main(argc, argv)) return *rc;
  if (probes < 3 || probes > 100000 || samples <= 0 || nodes <= 0 || nodes > 64 ||
      p99_ceiling <= 0) {
    std::fprintf(stderr, "implausible --probes/--samples/--nodes/--p99-ceiling\n");
    return 1;
  }

  const FleetStats fleet = run_fleet(static_cast<usize>(probes), static_cast<usize>(samples),
                                     static_cast<u32>(nodes), 42);

  const double frames_per_sec =
      fleet.wall_ms > 0.0 ? static_cast<double>(fleet.frames) / (fleet.wall_ms / 1000.0) : 0.0;
  const bool throughput_ok = throughput_floor <= 0.0 || frames_per_sec >= throughput_floor;
  const bool p99_ok = !fleet.p99_overflow && fleet.p99_worst <= static_cast<double>(p99_ceiling);
  const bool instrumented = fleet.ingest_observations > 0 && fleet.delivered > 0;
  const bool pass = throughput_ok && p99_ok && instrumented;
  const std::string digest =
      util::format("%016llx", static_cast<unsigned long long>(fleet.digest));

  util::Table table({"Frames", "Merged", "Delivered", "Dup", "Damage", "p99 (cy)", "Wall"});
  for (usize column = 0; column < 7; ++column) table.set_align(column, util::Align::kRight);
  table.set_title(util::format("fleet scale: %lld probes (v3/v4/v6 mix) x %lld samples",
                               static_cast<long long>(probes), static_cast<long long>(samples)));
  table.add_row({util::format("%llu", static_cast<unsigned long long>(fleet.frames)),
                 util::format("%zu", fleet.merged_samples),
                 util::format("%llu", static_cast<unsigned long long>(fleet.delivered)),
                 util::format("%llu", static_cast<unsigned long long>(fleet.duplicates)),
                 util::format("%zu", fleet.damage_total),
                 util::format("%.0f%s", fleet.p99_worst, fleet.p99_overflow ? "+" : ""),
                 util::format("%.1f ms", fleet.wall_ms)});
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nstate digest %s (%llu frames, %zu merged samples); "
              "throughput %.0f frames/sec (floor %.0f): %s; "
              "ingest p99 %.0f cycles (ceiling %lld): %s\n",
              digest.c_str(), static_cast<unsigned long long>(fleet.frames),
              fleet.merged_samples, frames_per_sec, throughput_floor,
              throughput_ok ? "PASS" : "FAIL", fleet.p99_worst,
              static_cast<long long>(p99_ceiling), p99_ok ? "PASS" : "FAIL");

  util::JsonObject report;
  report["bench"] = "fleet_scale";
  report["probes"] = static_cast<u64>(probes);
  report["samples_per_probe"] = static_cast<u64>(samples);
  report["state_digest"] = digest;
  report["frames_total"] = fleet.frames;
  report["merged_samples"] = static_cast<u64>(fleet.merged_samples);
  report["delivered_frames"] = fleet.delivered;
  report["duplicate_frames"] = fleet.duplicates;
  report["damage_total"] = static_cast<u64>(fleet.damage_total);
  report["wall_ms"] = fleet.wall_ms;
  report["frames_per_sec"] = frames_per_sec;
  report["throughput_floor_frames_per_sec"] = throughput_floor;
  report["ingest_p99_cycles"] = fleet.p99_worst;
  report["ingest_p99_overflow"] = fleet.p99_overflow;
  report["p99_ceiling_cycles"] = static_cast<u64>(p99_ceiling);
  report["ingest_observations"] = fleet.ingest_observations;
  report["pass"] = pass;
  util::write_file(out, util::Json(std::move(report)).dump(2) + "\n");
  std::printf("wrote %s\n", out.c_str());

  return pass ? 0 : 1;
}
