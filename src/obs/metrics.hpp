// Metrics registry: named counters, gauges and fixed-bucket histograms the
// toolkit uses to observe *itself* (wire-decoder resyncs, EvSel runs,
// monitor sampler ticks, alert transitions). LIKWID-style always-available
// lightweight instrumentation, exported in Prometheus text exposition
// format and as util::Json.
//
// Naming scheme: npat_<subsystem>_<name>[_total], optionally with
// {label="value"} suffixes in the registered name (rendered verbatim;
// HELP/TYPE lines are emitted once per base name). Metric handles returned
// by the registry are stable for the registry's lifetime, so hot paths
// look a metric up once (function-local static reference) and then pay one
// relaxed atomic op per event — or nothing when obs is disabled.
#pragma once

#include <atomic>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/runtime.hpp"
#include "util/json.hpp"
#include "util/types.hpp"

namespace npat::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(u64 delta = 1) noexcept {
    if (enabled()) value_.fetch_add(delta, std::memory_order_relaxed);
  }
  u64 value() const noexcept { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<u64> value_{0};
};

/// Last-written value (e.g. current alert severity, ring occupancy).
class Gauge {
 public:
  void set(double value) noexcept {
    if (enabled()) value_.store(value, std::memory_order_relaxed);
  }
  double value() const noexcept { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram (ascending upper bounds; an implicit +Inf bucket
/// catches the overflow). Buckets are cumulative in the Prometheus export.
/// NaN observations are dropped — a NaN would otherwise poison `sum` for
/// the rest of the process — and tallied in nan_observations() instead.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double value) noexcept;

  std::span<const double> bounds() const noexcept { return bounds_; }
  /// Non-cumulative count of bucket `index` (bounds().size() = +Inf bucket).
  u64 bucket_count(usize index) const noexcept {
    return counts_[index].load(std::memory_order_relaxed);
  }
  u64 count() const noexcept { return count_.load(std::memory_order_relaxed); }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  /// NaN values passed to observe(): dropped from every bucket and from
  /// `sum`/`count`, counted here so the damage is visible, not silent.
  u64 nan_observations() const noexcept { return nan_.load(std::memory_order_relaxed); }

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<u64>> counts_;  // bounds_.size() + 1
  std::atomic<u64> count_{0};
  std::atomic<u64> nan_{0};
  std::atomic<double> sum_{0.0};
};

/// Escapes a Prometheus label *value*: backslash, double quote and newline
/// per the text exposition format.
std::string escape_label_value(std::string_view value);

/// Renders `base{key="value",...}` with escaped values — the registry's
/// labeled-name convention (per-probe metric series use this).
std::string labeled_name(
    std::string_view base,
    std::initializer_list<std::pair<std::string_view, std::string_view>> labels);

class Registry {
 public:
  /// Returns the named metric, creating it on first use. Re-registering an
  /// existing name with a different metric kind throws. Help text: the
  /// first non-empty help wins, a later empty help never erases it, and a
  /// later *conflicting* non-empty help throws — two call sites silently
  /// disagreeing about what a metric means is a bug, not a preference.
  Counter& counter(const std::string& name, const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& help = "");
  Histogram& histogram(const std::string& name, std::vector<double> bounds,
                       const std::string& help = "");

  /// Current value of a registered counter/gauge; 0 if absent.
  u64 counter_value(const std::string& name) const;
  double gauge_value(const std::string& name) const;
  /// Stable pointer to a registered histogram; nullptr if the name is
  /// absent or registered as another kind. Handles outlive the lookup.
  const Histogram* find_histogram(const std::string& name) const;

  /// Prometheus text exposition format, metrics sorted by name, one HELP/
  /// TYPE pair per base name (the part before any '{' label suffix).
  std::string prometheus_text() const;
  util::Json to_json() const;

  /// Unregisters a metric by its exact registered name (labeled series
  /// use the full labeled_name() spelling). Returns true when an entry
  /// was removed. This is the one operation that invalidates a handle:
  /// the caller owns the discipline of dropping every cached pointer to
  /// the series first — the fleet collector retires a renamed probe's
  /// series only after re-resolving its own handles, and only when no
  /// sibling probe still publishes under the label.
  bool remove(const std::string& name);

 private:
  enum class Kind : u8 { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind = Kind::kCounter;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry_of(const std::string& name, Kind kind, const std::string& help);

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;  // ordered -> deterministic export
};

}  // namespace npat::obs
