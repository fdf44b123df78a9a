#include "profile/source_profile.hpp"

#include <algorithm>

#include "util/strings.hpp"
#include "util/table.hpp"

namespace npat::profile {

void SourceProfile::register_region(u32 tag, std::string name) {
  names_[tag] = std::move(name);
}

void SourceProfile::attach(trace::Runner& runner) {
  runner.set_tag_sink(
      [this](u32 tag, const sim::CounterBlock& delta) { record(tag, delta); });
}

void SourceProfile::record(u32 tag, const sim::CounterBlock& delta) {
  totals_[tag] += delta;
}

u64 SourceProfile::count(u32 tag, sim::Event event) const {
  const auto it = totals_.find(tag);
  return it == totals_.end() ? 0 : it->second[event];
}

double SourceProfile::share(u32 tag, sim::Event event) const {
  u64 total = 0;
  for (const auto& [t, block] : totals_) total += block[event];
  if (total == 0) return 0.0;
  return static_cast<double>(count(tag, event)) / static_cast<double>(total);
}

std::vector<u32> SourceProfile::tags() const {
  std::vector<u32> out;
  for (const auto& [tag, block] : totals_) out.push_back(tag);
  return out;
}

const std::string& SourceProfile::region_name(u32 tag) const {
  static const std::string kUntagged = "(untagged)";
  const auto it = names_.find(tag);
  if (it != names_.end()) return it->second;
  if (tag == kUntaggedRegion) return kUntagged;
  static thread_local std::string fallback;
  fallback = "region-" + std::to_string(tag);
  return fallback;
}

std::string SourceProfile::report(const std::vector<sim::Event>& columns,
                                  sim::Event sort_by) const {
  std::vector<u32> ordered = tags();
  std::stable_sort(ordered.begin(), ordered.end(), [&](u32 a, u32 b) {
    return count(a, sort_by) > count(b, sort_by);
  });

  std::vector<std::string> headers = {"region",
                                      std::string(sim::event_name(sort_by)) + " %"};
  for (const sim::Event event : columns) {
    headers.push_back(std::string(sim::event_name(event)));
  }
  util::Table table(headers);
  table.set_title("source-region attribution (sorted by " +
                  std::string(sim::event_name(sort_by)) + ")");
  for (usize c = 1; c < headers.size(); ++c) table.set_align(c, util::Align::kRight);

  for (const u32 tag : ordered) {
    std::vector<std::string> row = {region_name(tag),
                                    util::format("%.1f %%", share(tag, sort_by) * 100)};
    for (const sim::Event event : columns) {
      row.push_back(util::si_scaled(static_cast<double>(count(tag, event))));
    }
    table.add_row(row);
  }
  return table.render();
}

}  // namespace npat::profile
