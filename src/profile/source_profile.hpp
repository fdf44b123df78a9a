// Counter→code-location attribution — the paper's outlook: "the mapping
// from events to lines of code was merely covered in this paper, yet this
// information is important to developers when searching for performance
// bottlenecks in their applications."
//
// Workload bodies mark code regions with ThreadContext::set_source_tag();
// the runner delivers per-region counter deltas to a SourceProfile, which
// aggregates them into a perf-report-style hotspot table. Attribution is
// exact (counter snapshots at region boundaries), not sampled.
//
// Limitation: deltas are per *core*; if several simulated threads share a
// core (oversubscription), their regions overlap in the core's counters.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "sim/events.hpp"
#include "trace/runner.hpp"

namespace npat::profile {

inline constexpr u32 kUntaggedRegion = 0;

class SourceProfile {
 public:
  /// Names a region tag (e.g. tag 1 -> "fill", tag 2 -> "merge").
  void register_region(u32 tag, std::string name);

  /// Binds this profile to a runner (installs the tag sink). The profile
  /// must outlive the run.
  void attach(trace::Runner& runner);

  /// Accumulates one region delta (also the raw tag-sink entry point).
  void record(u32 tag, const sim::CounterBlock& delta);

  // --- queries ---
  u64 count(u32 tag, sim::Event event) const;
  /// Fraction of the profile's total for `event` attributed to `tag`.
  double share(u32 tag, sim::Event event) const;
  std::vector<u32> tags() const;
  const std::string& region_name(u32 tag) const;
  usize regions_recorded() const { return totals_.size(); }

  /// Hotspot table ordered by `sort_by` (descending), one row per region,
  /// with the given event columns.
  std::string report(const std::vector<sim::Event>& columns = {
                         sim::Event::kCycles, sim::Event::kInstructions,
                         sim::Event::kL1dMiss, sim::Event::kL3Miss,
                         sim::Event::kMemLoadRemoteDram},
                     sim::Event sort_by = sim::Event::kCycles) const;

 private:
  std::map<u32, sim::CounterBlock> totals_;
  std::map<u32, std::string> names_;
};

}  // namespace npat::profile
