#include "obs/metrics.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/strings.hpp"

namespace npat::obs {

namespace {

/// "npat_x_total{rule="r"}" -> "npat_x_total" (HELP/TYPE lines carry the
/// base name; the label suffix is rendered verbatim on the sample line).
std::string_view base_name(std::string_view name) {
  const auto brace = name.find('{');
  return brace == std::string_view::npos ? name : name.substr(0, brace);
}

void add_double(std::atomic<double>& target, double delta) noexcept {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta, std::memory_order_relaxed)) {
  }
}

std::string render_double(double value) {
  // Integral values print without a fractional part, like Prometheus does.
  return util::compact_double(value, 6);
}

/// HELP text escaping per the exposition format: backslash and newline
/// (a raw newline in help would end the HELP line mid-sentence).
std::string escape_help(std::string_view help) {
  std::string out;
  out.reserve(help.size());
  for (const char c : help) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {
  NPAT_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                 "histogram bucket bounds must be ascending");
}

void Histogram::observe(double value) noexcept {
  if (!enabled()) return;
  if (value != value) {  // NaN: would land in +Inf *and* poison sum_ forever
    nan_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  usize bucket = bounds_.size();  // +Inf
  for (usize i = 0; i < bounds_.size(); ++i) {
    if (value <= bounds_[i]) {
      bucket = i;
      break;
    }
  }
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  add_double(sum_, value);
}

std::string escape_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string labeled_name(
    std::string_view base,
    std::initializer_list<std::pair<std::string_view, std::string_view>> labels) {
  std::string out(base);
  out += '{';
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += key;
    out += "=\"";
    out += escape_label_value(value);
    out += '"';
  }
  out += '}';
  return out;
}

Registry::Entry& Registry::entry_of(const std::string& name, Kind kind, const std::string& help) {
  auto [it, inserted] = entries_.try_emplace(name);
  if (inserted) {
    it->second.kind = kind;
    it->second.help = help;
  } else {
    NPAT_CHECK_MSG(it->second.kind == kind, "metric re-registered with a different kind");
    // Help policy: first non-empty help wins, a later empty help backfills
    // nothing away, and two call sites disagreeing out loud is a bug.
    if (it->second.help.empty()) {
      it->second.help = help;
    } else {
      NPAT_CHECK_MSG(help.empty() || help == it->second.help,
                     "metric re-registered with a conflicting help string");
    }
  }
  return it->second;
}

Counter& Registry::counter(const std::string& name, const std::string& help) {
  std::lock_guard lock(mutex_);
  Entry& entry = entry_of(name, Kind::kCounter, help);
  if (!entry.counter) entry.counter = std::make_unique<Counter>();
  return *entry.counter;
}

Gauge& Registry::gauge(const std::string& name, const std::string& help) {
  std::lock_guard lock(mutex_);
  Entry& entry = entry_of(name, Kind::kGauge, help);
  if (!entry.gauge) entry.gauge = std::make_unique<Gauge>();
  return *entry.gauge;
}

Histogram& Registry::histogram(const std::string& name, std::vector<double> bounds,
                               const std::string& help) {
  std::lock_guard lock(mutex_);
  Entry& entry = entry_of(name, Kind::kHistogram, help);
  if (!entry.histogram) entry.histogram = std::make_unique<Histogram>(std::move(bounds));
  return *entry.histogram;
}

u64 Registry::counter_value(const std::string& name) const {
  std::lock_guard lock(mutex_);
  const auto it = entries_.find(name);
  return it != entries_.end() && it->second.counter ? it->second.counter->value() : 0;
}

double Registry::gauge_value(const std::string& name) const {
  std::lock_guard lock(mutex_);
  const auto it = entries_.find(name);
  return it != entries_.end() && it->second.gauge ? it->second.gauge->value() : 0.0;
}

const Histogram* Registry::find_histogram(const std::string& name) const {
  std::lock_guard lock(mutex_);
  const auto it = entries_.find(name);
  return it != entries_.end() ? it->second.histogram.get() : nullptr;
}

std::string Registry::prometheus_text() const {
  std::lock_guard lock(mutex_);
  std::string out;
  std::string_view last_base;
  for (const auto& [name, entry] : entries_) {
    const std::string_view base = base_name(name);
    if (base != last_base) {
      if (!entry.help.empty()) {
        out += util::format("# HELP %.*s %s\n", static_cast<int>(base.size()), base.data(),
                            escape_help(entry.help).c_str());
      }
      const char* type = entry.kind == Kind::kCounter  ? "counter"
                         : entry.kind == Kind::kGauge ? "gauge"
                                                      : "histogram";
      out += util::format("# TYPE %.*s %s\n", static_cast<int>(base.size()), base.data(), type);
      last_base = base;
    }
    switch (entry.kind) {
      case Kind::kCounter:
        out += util::format("%s %llu\n", name.c_str(),
                            static_cast<unsigned long long>(entry.counter->value()));
        break;
      case Kind::kGauge:
        out += util::format("%s %s\n", name.c_str(), render_double(entry.gauge->value()).c_str());
        break;
      case Kind::kHistogram: {
        const Histogram& histogram = *entry.histogram;
        // A labeled series "base{l=\"v\"}" must fold `le` into the existing
        // label set: "base_bucket{l=\"v\",le=\"...\"}" — suffixing the full
        // name would put text after the closing brace, which Prometheus
        // rejects.
        const std::string series(base);
        const std::string labels = name.size() > base.size() ? name.substr(base.size()) : "";
        const std::string inner =
            labels.empty() ? "" : labels.substr(1, labels.size() - 2) + ",";
        u64 cumulative = 0;
        for (usize i = 0; i < histogram.bounds().size(); ++i) {
          cumulative += histogram.bucket_count(i);
          out += util::format("%s_bucket{%sle=\"%s\"} %llu\n", series.c_str(), inner.c_str(),
                              render_double(histogram.bounds()[i]).c_str(),
                              static_cast<unsigned long long>(cumulative));
        }
        cumulative += histogram.bucket_count(histogram.bounds().size());
        out += util::format("%s_bucket{%sle=\"+Inf\"} %llu\n", series.c_str(), inner.c_str(),
                            static_cast<unsigned long long>(cumulative));
        out += util::format("%s_sum%s %s\n", series.c_str(), labels.c_str(),
                            render_double(histogram.sum()).c_str());
        out += util::format("%s_count%s %llu\n", series.c_str(), labels.c_str(),
                            static_cast<unsigned long long>(histogram.count()));
        break;
      }
    }
  }
  return out;
}

util::Json Registry::to_json() const {
  std::lock_guard lock(mutex_);
  util::JsonObject doc;
  for (const auto& [name, entry] : entries_) {
    util::JsonObject metric;
    metric["help"] = entry.help;
    switch (entry.kind) {
      case Kind::kCounter:
        metric["type"] = "counter";
        metric["value"] = entry.counter->value();
        break;
      case Kind::kGauge:
        metric["type"] = "gauge";
        metric["value"] = entry.gauge->value();
        break;
      case Kind::kHistogram: {
        metric["type"] = "histogram";
        const Histogram& histogram = *entry.histogram;
        util::JsonArray buckets;
        for (usize i = 0; i < histogram.bounds().size(); ++i) {
          util::JsonObject bucket;
          bucket["le"] = histogram.bounds()[i];
          bucket["count"] = histogram.bucket_count(i);
          buckets.emplace_back(std::move(bucket));
        }
        util::JsonObject overflow;
        overflow["le"] = "+Inf";
        overflow["count"] = histogram.bucket_count(histogram.bounds().size());
        buckets.emplace_back(std::move(overflow));
        metric["buckets"] = std::move(buckets);
        metric["sum"] = histogram.sum();
        metric["count"] = histogram.count();
        metric["nan_observations"] = histogram.nan_observations();
        break;
      }
    }
    doc[name] = std::move(metric);
  }
  return doc;
}

bool Registry::remove(const std::string& name) {
  std::lock_guard lock(mutex_);
  return entries_.erase(name) > 0;
}

}  // namespace npat::obs
