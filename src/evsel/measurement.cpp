#include "evsel/measurement.hpp"

#include "stats/descriptive.hpp"
#include "util/check.hpp"

namespace npat::evsel {

double Measurement::parameter(const std::string& name) const {
  const auto it = parameters_.find(name);
  NPAT_CHECK_MSG(it != parameters_.end(), "unknown measurement parameter: " + name);
  return it->second;
}

void Measurement::add_values(const std::vector<perf::EventValue>& values) {
  for (const auto& value : values) values_[value.event].push_back(value.value);
}

bool Measurement::has(sim::Event event) const { return values_.count(event) > 0; }

const std::vector<double>& Measurement::samples(sim::Event event) const {
  static const std::vector<double> kEmpty;
  const auto it = values_.find(event);
  return it == values_.end() ? kEmpty : it->second;
}

double Measurement::mean(sim::Event event) const {
  const auto& s = samples(event);
  return s.empty() ? 0.0 : stats::mean(s);
}

std::vector<sim::Event> Measurement::recorded_events() const {
  std::vector<sim::Event> out;
  for (const auto& info : sim::all_events()) {
    if (has(info.event)) out.push_back(info.event);
  }
  return out;
}

bool Measurement::all_zero(sim::Event event) const {
  const auto& s = samples(event);
  if (s.empty()) return true;
  for (double v : s) {
    if (v != 0.0) return false;
  }
  return true;
}

void Measurement::annotate_trust(const validate::TrustReport& report) {
  for (const sim::Event event : recorded_events()) {
    const validate::TrustTier tier = report.tier(event);
    if (tier != validate::TrustTier::kUnvalidated) trust_[event] = tier;
  }
}

validate::TrustTier Measurement::trust(sim::Event event) const {
  const auto it = trust_.find(event);
  return it == trust_.end() ? validate::TrustTier::kUnvalidated : it->second;
}

util::Json Measurement::to_json() const {
  util::JsonObject doc;
  doc["label"] = label_;
  if (quarantined_runs_ > 0) doc["quarantined_runs"] = static_cast<double>(quarantined_runs_);
  if (retry_exhausted_runs_ > 0) {
    doc["retry_exhausted_runs"] = static_cast<double>(retry_exhausted_runs_);
  }
  if (!trust_.empty()) {
    util::JsonObject trust;
    for (const auto& [event, tier] : trust_) {
      trust[std::string(sim::event_name(event))] = std::string(validate::tier_name(tier));
    }
    doc["trust"] = std::move(trust);
  }
  util::JsonObject params;
  for (const auto& [name, value] : parameters_) params[name] = value;
  doc["parameters"] = std::move(params);
  util::JsonObject events;
  for (const auto& [event, samples] : values_) {
    util::JsonArray arr;
    for (double v : samples) arr.emplace_back(v);
    events[std::string(sim::event_name(event))] = std::move(arr);
  }
  doc["events"] = std::move(events);
  return util::Json(std::move(doc));
}

}  // namespace npat::evsel
