// Platform event discovery — the perf-list analogue EvSel builds on.
#pragma once

#include <vector>

#include "sim/events.hpp"

namespace npat::perf {

/// All events the platform exposes, optionally filtered.
std::vector<sim::Event> available_events();
std::vector<sim::Event> events_with_scope(sim::EventScope scope);

/// Fixed-counter events (measurable without consuming a programmable
/// register).
bool is_fixed(sim::Event event);
bool is_uncore(sim::Event event);

}  // namespace npat::perf
