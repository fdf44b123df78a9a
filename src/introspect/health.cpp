#include "introspect/health.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "util/ansi.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace npat::introspect {

namespace {

std::string cycles_compact(double cycles) { return util::si_scaled(cycles); }

util::Cell depth_cell(usize depth) {
  return {util::format("%zu", depth), depth > 0 ? util::Style::kYellow : util::Style::kDim};
}

util::Cell damage_cell(usize count) {
  return {util::format("%zu", count), count > 0 ? util::Style::kYellow : util::Style::kDim};
}

util::Cell state_cell(const HealthRow& row) {
  if (row.ended) return {"ended", util::Style::kDim};
  if (row.liveness == "dead") return {"dead", util::Style::kRed};
  if (row.liveness == "stale") return {"stale", util::Style::kYellow};
  return {"live", util::Style::kGreen};
}

}  // namespace

std::string render_health(const std::vector<HealthRow>& rows, Cycles clock,
                          const HealthOptions& options) {
  std::string out;
  if (options.clear_screen && util::ansi_enabled()) out += "\x1b[H\x1b[2J";

  u64 frames = 0, stamped = 0;
  usize damage = 0;
  for (const HealthRow& row : rows) {
    frames += row.pipeline.frames;
    stamped += row.pipeline.stamped_frames;
    damage += row.dropped + row.unexpected;
  }
  const FlightRecorder& recorder = flight();
  out += util::format(
      "%s — probes=%zu  clock=%s  frames=%llu (%llu stamped)  damage=%zu  "
      "flight: %llu events (%llu evicted)\n",
      options.title.c_str(), rows.size(), cycles_compact(static_cast<double>(clock)).c_str(),
      static_cast<unsigned long long>(frames), static_cast<unsigned long long>(stamped), damage,
      static_cast<unsigned long long>(recorder.recorded()),
      static_cast<unsigned long long>(recorder.evicted()));

  util::Table table({"Host", "State", "Frames", "fr/Mcy", "Lat mean", "Lat p99", "Lat max",
                     "Dwell", "Pend", "Orph", "Gap", "Drop", "Rsync", "Trunc", "Unexp", "Dup"});
  for (usize column = 2; column < table.columns(); ++column) {
    table.set_align(column, util::Align::kRight);
  }
  for (const HealthRow& row : rows) {
    const PipelineStats& p = row.pipeline;
    std::vector<util::Cell> cells;
    cells.push_back({row.host, util::Style::kBold});
    cells.push_back(state_cell(row));
    cells.push_back({util::format("%llu", static_cast<unsigned long long>(p.frames)),
                     util::Style::kNone});
    cells.push_back({util::format("%.1f", p.frames_per_mcycle), util::Style::kNone});
    const bool measured = p.ingest_observations > 0;
    const util::Style lat_style = measured ? util::Style::kNone : util::Style::kDim;
    cells.push_back({measured ? cycles_compact(p.ingest_mean()) : "-", lat_style});
    // An overflowed p99 is a floor, not a measurement: ">=bound" in red so
    // a blown-out tail is never mistaken for one that fits the buckets.
    if (measured && p.ingest_p99_overflow) {
      cells.push_back({">=" + cycles_compact(p.ingest_p99), util::Style::kRed});
    } else {
      cells.push_back({measured ? cycles_compact(p.ingest_p99) : "-", lat_style});
    }
    cells.push_back(
        {measured ? cycles_compact(static_cast<double>(p.ingest_max)) : "-", lat_style});
    cells.push_back({p.reorder_observations > 0 ? cycles_compact(p.reorder_mean()) : "-",
                     p.reorder_observations > 0 ? util::Style::kNone : util::Style::kDim});
    cells.push_back(depth_cell(p.pending_depth));
    cells.push_back(depth_cell(p.orphan_depth));
    cells.push_back(depth_cell(row.gap_backlog));
    cells.push_back(damage_cell(row.dropped));
    cells.push_back(damage_cell(row.resyncs));
    cells.push_back(damage_cell(row.truncated));
    cells.push_back(damage_cell(row.unexpected));
    cells.push_back(damage_cell(static_cast<usize>(row.duplicates)));
    table.add_styled_row(std::move(cells));
  }
  out += table.render();
  return out;
}

QuantileEstimate histogram_quantile_estimate(const obs::Histogram& histogram, double q) {
  const u64 count = histogram.count();
  if (count == 0) return {};
  const auto bounds = histogram.bounds();
  if (bounds.empty()) return {};
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count);
  u64 cumulative = 0;
  for (usize i = 0; i < bounds.size(); ++i) {
    const u64 in_bucket = histogram.bucket_count(i);
    if (static_cast<double>(cumulative + in_bucket) >= rank && in_bucket > 0) {
      // Linear interpolation inside the winning bucket, lower edge = the
      // previous bound (or 0 for the first bucket).
      const double lower = i == 0 ? 0.0 : bounds[i - 1];
      const double fraction =
          (rank - static_cast<double>(cumulative)) / static_cast<double>(in_bucket);
      return {lower + (bounds[i] - lower) * std::clamp(fraction, 0.0, 1.0), false};
    }
    cumulative += in_bucket;
  }
  // The crossing lands in +Inf: the largest finite bound is only a floor
  // on the truth — say so, instead of letting a blown-out p99 cosplay as
  // one that just grazed the top bucket.
  return {bounds.back(), true};
}

std::string self_metrics_prometheus(const obs::Registry& registry,
                                    const FlightRecorder& recorder) {
  std::string out = registry.prometheus_text();
  out += "# HELP npat_flight_events_total Flight-recorder occurrences by event kind\n";
  out += "# TYPE npat_flight_events_total counter\n";
  for (usize i = 0; i < kFlightKindCount; ++i) {
    const FlightKind kind = static_cast<FlightKind>(i);
    out += util::format("npat_flight_events_total{kind=\"%s\"} %llu\n", flight_kind_name(kind),
                        static_cast<unsigned long long>(recorder.total(kind)));
  }
  out += "# HELP npat_flight_ring_recorded_total Events recorded into the flight ring\n";
  out += "# TYPE npat_flight_ring_recorded_total counter\n";
  out += util::format("npat_flight_ring_recorded_total %llu\n",
                      static_cast<unsigned long long>(recorder.recorded()));
  out += "# HELP npat_flight_ring_evicted_total Events evicted by the ring's capacity bound\n";
  out += "# TYPE npat_flight_ring_evicted_total counter\n";
  out += util::format("npat_flight_ring_evicted_total %llu\n",
                      static_cast<unsigned long long>(recorder.evicted()));
  return out;
}

util::Json self_metrics_json(const obs::Registry& registry, const FlightRecorder& recorder) {
  util::JsonObject doc;
  doc["metrics"] = registry.to_json();
  util::JsonObject ring;
  ring["capacity"] = static_cast<u64>(recorder.capacity());
  ring["recorded"] = recorder.recorded();
  ring["evicted"] = recorder.evicted();
  util::JsonObject totals;
  for (usize i = 0; i < kFlightKindCount; ++i) {
    const FlightKind kind = static_cast<FlightKind>(i);
    const u64 total = recorder.total(kind);
    if (total > 0) totals[flight_kind_name(kind)] = total;
  }
  ring["totals"] = std::move(totals);
  doc["flight"] = std::move(ring);
  return util::Json(std::move(doc));
}

std::string self_metrics_prometheus() { return self_metrics_prometheus(obs::metrics(), flight()); }

util::Json self_metrics_json() { return self_metrics_json(obs::metrics(), flight()); }

}  // namespace npat::introspect
