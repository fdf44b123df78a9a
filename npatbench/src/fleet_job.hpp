// The `fleet_ingest` job: one sequential `fleet::FleetCollector` ingesting
// monitor-sample streams from thousands of simulated probes.
//
// Probes send on different periods (every 2nd to 16th round), so in any
// poll most of them are idle. Most probes are plain `memhist::Probe`s on
// clean loopback links. A lossy minority drops, corrupts and cuts frames:
// half are `resilience::SupervisedProbe`s whose links drop frames and cut
// mid-frame and are redialled, half are plain probes whose links drop and
// corrupt frames. A stamped minority annotate frames with emit stamps that
// feed the collector's ingest-latency histograms. The loop is closed: each
// round the generator writes, then the collector polls once.
#pragma once

#include <vector>

#include "memhist/wire.hpp"
#include "sim_jobs.hpp"
#include "tracer.hpp"

namespace npatbench {

struct FleetSpec {
  usize probes = 0;
  usize rounds = 0;  // data rounds; drain rounds follow until all is acked
  u32 nodes = 2;     // NUMA nodes per telemetry sample
  u64 seed = 0;
};

FleetSpec fleet_ingest_spec(u64 seed, JobSize size);

/// The deterministic telemetry sample `index` of probe `probe`.
npat::memhist::wire::MonitorSampleMsg make_sample(u64 seed, usize probe, usize index, u32 nodes);

struct FleetJobResult {
  double setup_s = 0.0;  // collector, probes, links and hellos
  double job_s = 0.0;    // the round loop
  std::vector<double> poll_ms;  // per FleetCollector::poll call
  std::vector<usize> ready;     // probes written to before each poll
  u64 frames = 0;               // CRC-valid frames decoded, all probes
  u64 duplicates = 0;
  u64 redials = 0;
  u64 damage = 0;               // dropped + unexpected frames
  u64 samples_sent = 0;
  /// Digest of every probe's merged sample timeline and end state.
  u64 digest = 0;
  /// One entry per probe: false if its reconciliation identity
  /// (sent = delivered + duplicates + control + dropped + discarded) or
  /// its merged-equals-sent timeline failed.
  std::vector<bool> probe_ok;
};

/// Runs one job. With a tracer, spans cover the probes' sends (`memhist`
/// for plain and stamped probes, `resilience` for supervised ones) and
/// every poll (`fleet`).
FleetJobResult run_fleet_job(const FleetSpec& spec, Tracer* tracer);

}  // namespace npatbench
