// Health surface: the pipeline observing itself. PipelineStats is the
// plain-value per-probe telemetry the FleetCollector republishes each
// poll (hop latency, reorder dwell, stage depths, decode rate); HealthRow
// adds identity and damage so npat_top --health can render a per-probe
// table; the self-metrics exports bundle the obs registry with the flight
// recorder's totals in Prometheus text and JSON, the same way NUMAscope
// exposes its own ingest latency and backpressure.
//
// introspect sits between obs and the transport layers in the DAG
// (util -> obs -> introspect -> resilience/fleet): this header defines
// the vocabulary, the collector fills it, and nothing here depends on
// fleet types.
#pragma once

#include <string>
#include <vector>

#include "introspect/flight.hpp"
#include "obs/metrics.hpp"
#include "util/json.hpp"
#include "util/types.hpp"

namespace npat::introspect {

/// Per-probe pipeline telemetry, republished by the collector each poll.
/// Latencies are in collector clock cycles; the emit clock is aligned per
/// probe from the first stamped frame (latency 0 by construction), so
/// later values are *relative* transit+queueing delay, immune to clock
/// skew the same way sample timestamps are.
struct PipelineStats {
  u64 frames = 0;          ///< CRC-valid frames decoded from this probe
  u64 stamped_frames = 0;  ///< frames that carried an emit-stamp annotation
  u64 ingest_observations = 0;
  double ingest_sum = 0.0;  ///< cycles, summed over observations
  Cycles ingest_max = 0;
  double ingest_p99 = 0.0;  ///< estimated from the histogram buckets
  /// The p99 crossing landed in the histogram's +Inf bucket: ingest_p99
  /// is only a *floor* (the largest finite bound), and the pane renders
  /// it as ">=bound" so a blown-out tail never masquerades as healthy.
  bool ingest_p99_overflow = false;
  u64 reorder_observations = 0;
  double reorder_sum = 0.0;
  Cycles reorder_max = 0;
  usize pending_depth = 0;  ///< reorder-stage occupancy right now
  usize orphan_depth = 0;   ///< orphan-row pool occupancy right now
  double frames_per_mcycle = 0.0;  ///< decoded frames per million collector cycles

  double ingest_mean() const noexcept {
    return ingest_observations > 0 ? ingest_sum / static_cast<double>(ingest_observations) : 0.0;
  }
  double reorder_mean() const noexcept {
    return reorder_observations > 0 ? reorder_sum / static_cast<double>(reorder_observations)
                                    : 0.0;
  }
};

/// One probe's row in the --health pane.
struct HealthRow {
  std::string host;
  bool supervised = false;
  std::string liveness = "live";
  bool ended = false;
  PipelineStats pipeline;
  u64 delivered = 0;   ///< exactly-once deliveries (0 for plain streams)
  u64 duplicates = 0;  ///< retransmissions suppressed by the ledger
  usize gap_backlog = 0;
  usize dropped = 0;
  usize resyncs = 0;
  usize truncated = 0;
  usize unexpected = 0;
  usize orphaned = 0;
};

struct HealthOptions {
  bool ansi = false;          ///< colour cues (depth/damage highlighting)
  bool clear_screen = false;  ///< prefix the ANSI home+clear sequence
  std::string title = "npat-health";
};

/// Renders the per-probe pipeline table plus a flight-recorder summary
/// line. Byte-stable for fixed inputs when `ansi` is off (golden-tested).
std::string render_health(const std::vector<HealthRow>& rows, Cycles clock,
                          const HealthOptions& options = {});

/// A bucket-quantile estimate that knows when it is lying: `overflow` is
/// set when the crossing landed in the implicit +Inf bucket, in which
/// case `value` (the largest finite bound) is only a floor on the truth.
struct QuantileEstimate {
  double value = 0.0;
  bool overflow = false;
};

/// p-quantile estimate from a fixed-bucket histogram, Prometheus
/// histogram_quantile-style: find the bucket where the cumulative count
/// crosses q*count, interpolate linearly inside it. Returns 0 for an
/// empty histogram; the lowest bound for q <= 0; when the crossing lands
/// in +Inf the value clamps to the last finite bound and `overflow` is
/// set so callers can render the result as ">=bound".
QuantileEstimate histogram_quantile_estimate(const obs::Histogram& histogram, double q);

/// Self-metrics exports: `registry` in Prometheus text followed by the
/// flight recorder's per-kind totals as npat_flight_events_total{kind=…}
/// counters (and npat_flight_ring_{recorded,evicted}_total).
std::string self_metrics_prometheus(const obs::Registry& registry,
                                    const FlightRecorder& recorder);
/// {"metrics": registry.to_json(), "flight": recorder summary}.
util::Json self_metrics_json(const obs::Registry& registry, const FlightRecorder& recorder);

/// Process-wide convenience overloads: obs::metrics() + introspect::flight().
std::string self_metrics_prometheus();
util::Json self_metrics_json();

}  // namespace npat::introspect
