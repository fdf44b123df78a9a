#include "perf/registry.hpp"

namespace npat::perf {

std::vector<sim::Event> available_events() {
  std::vector<sim::Event> out;
  out.reserve(sim::kEventCount);
  for (const auto& info : sim::all_events()) out.push_back(info.event);
  return out;
}

std::vector<sim::Event> events_with_scope(sim::EventScope scope) {
  std::vector<sim::Event> out;
  for (const auto& info : sim::all_events()) {
    if (info.scope == scope) out.push_back(info.event);
  }
  return out;
}

bool is_fixed(sim::Event event) {
  return sim::event_info(event).scope == sim::EventScope::kFixed;
}

bool is_uncore(sim::Event event) {
  return sim::event_info(event).scope == sim::EventScope::kUncore;
}

}  // namespace npat::perf
