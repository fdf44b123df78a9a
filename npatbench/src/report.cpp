#include "report.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/json.hpp"

namespace npatbench {

namespace {
constexpr std::size_t kLoggedFailures = 20;
}  // namespace

void Checks::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < kLoggedFailures) failures_.push_back(what);
}

double Checks::failed_fraction() const noexcept {
  return attempted_ > 0 ? static_cast<double>(failed_) / static_cast<double>(attempted_) : 1.0;
}

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  NPAT_CHECK_MSG(std::isfinite(value), "metric " + name + " is not finite");
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

bool Metrics::has(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&name](const Metric& metric) { return metric.name == name; });
}

void Metrics::fill_from(const Metrics& other) {
  for (const Metric& metric : other.metrics_) {
    if (!has(metric.name)) metrics_.push_back(metric);
  }
}

std::string result_json(const Checks& checks, const Metrics& metrics) {
  npat::util::JsonObject values;
  for (const Metric& metric : metrics.all()) {
    npat::util::JsonObject entry;
    entry["value"] = metric.value;
    entry["unit"] = metric.unit;
    values[metric.name] = npat::util::Json(std::move(entry));
  }
  npat::util::JsonObject doc;
  doc["correct"] = checks.attempted() > 0 && checks.failed() == 0;
  doc["attempted"] = checks.attempted();
  doc["failed"] = checks.failed();
  doc["metrics"] = npat::util::Json(std::move(values));
  return npat::util::Json(std::move(doc)).dump();
}

}  // namespace npatbench
