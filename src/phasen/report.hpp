// Terminal rendering of Phasenprüfer results: the footprint curve with the
// detected phase split marked (paper Fig. 11's "phase split button"), and
// a per-phase counter table.
#pragma once

#include <string>
#include <vector>

#include "phasen/attribution.hpp"
#include "phasen/detector.hpp"
#include "util/json.hpp"

namespace npat::phasen {

struct ChartOptions {
  usize width = 72;
  usize height = 14;
};

/// ASCII chart of the footprint with '|' at phase transitions.
std::string render_footprint_chart(const std::vector<os::FootprintSample>& samples,
                                   const PhaseSplit& split, const ChartOptions& options = {});

/// Per-phase counter table; `highlight` restricts the rows (empty = events
/// whose rates differ most between the first two phases).
std::string render_phase_counters(const PhaseAttribution& attribution,
                                  std::vector<sim::Event> highlight = {}, usize max_rows = 12);

util::Json split_to_json(const PhaseSplit& split, const PhaseAttribution* attribution = nullptr);

}  // namespace npat::phasen
