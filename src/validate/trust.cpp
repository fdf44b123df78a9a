#include "validate/trust.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace npat::validate {

namespace {

constexpr const char* kTierNames[] = {"exact", "bounded", "suspect", "refuted",
                                      "unvalidated"};

usize index_of(sim::Event event) { return static_cast<usize>(event); }

}  // namespace

const char* tier_name(TrustTier tier) {
  const auto i = static_cast<usize>(tier);
  NPAT_CHECK_MSG(i < std::size(kTierNames), "trust tier out of range");
  return kTierNames[i];
}

TrustTier tier_from_name(const std::string& name) {
  for (usize i = 0; i < std::size(kTierNames); ++i) {
    if (name == kTierNames[i]) return static_cast<TrustTier>(i);
  }
  NPAT_CHECK_MSG(false, "unknown trust tier: " + name);
  return TrustTier::kUnvalidated;
}

void TrustReport::record(const EventTrust& evidence) {
  auto& slot = rows_[index_of(evidence.event)];
  if (!slot) {
    slot = evidence;
    return;
  }
  slot->checks += evidence.checks;
  // The worst tier owns the citation; ties keep the first witness so a
  // re-run cites the same kernel deterministically.
  if (static_cast<u8>(evidence.tier) > static_cast<u8>(slot->tier)) {
    slot->tier = evidence.tier;
    slot->kernel = evidence.kernel;
    slot->observed_ratio = evidence.observed_ratio;
    slot->measured = evidence.measured;
    slot->expected = evidence.expected;
  }
}

TrustTier TrustReport::tier(sim::Event event) const {
  const auto& slot = rows_[index_of(event)];
  return slot ? slot->tier : TrustTier::kUnvalidated;
}

const EventTrust* TrustReport::evidence(sim::Event event) const {
  const auto& slot = rows_[index_of(event)];
  return slot ? &*slot : nullptr;
}

std::vector<EventTrust> TrustReport::rows() const {
  std::vector<EventTrust> out;
  for (const auto& info : sim::all_events()) {
    const auto& slot = rows_[index_of(info.event)];
    if (slot) out.push_back(*slot);
  }
  return out;
}

usize TrustReport::count(TrustTier tier) const {
  usize n = 0;
  for (const auto& slot : rows_) {
    if (slot && slot->tier == tier) ++n;
  }
  return n;
}

usize TrustReport::validated_events() const {
  usize n = 0;
  for (const auto& slot : rows_) {
    if (slot) ++n;
  }
  return n;
}

bool TrustReport::all_trusted() const {
  for (const auto& info : sim::all_events()) {
    const TrustTier t = tier(info.event);
    if (t != TrustTier::kExact && t != TrustTier::kBounded) return false;
  }
  return true;
}

std::vector<sim::Event> TrustReport::events_at_or_below(TrustTier tier) const {
  std::vector<sim::Event> out;
  for (const auto& info : sim::all_events()) {
    const TrustTier t = this->tier(info.event);
    if (t != TrustTier::kUnvalidated && static_cast<u8>(t) >= static_cast<u8>(tier)) {
      out.push_back(info.event);
    }
  }
  return out;
}

util::Json TrustReport::to_json() const {
  util::JsonObject doc;
  doc["machine"] = machine;
  util::JsonArray kernel_names;
  for (const auto& k : kernels) kernel_names.emplace_back(k);
  doc["kernels"] = std::move(kernel_names);
  util::JsonObject events;
  for (const EventTrust& row : rows()) {
    util::JsonObject r;
    r["tier"] = std::string(tier_name(row.tier));
    r["kernel"] = row.kernel;
    r["observed_ratio"] = row.observed_ratio;
    r["measured"] = row.measured;
    r["expected"] = row.expected;
    r["checks"] = static_cast<double>(row.checks);
    events[std::string(sim::event_name(row.event))] = std::move(r);
  }
  doc["events"] = std::move(events);
  return util::Json(std::move(doc));
}

std::string render_trust_table(const TrustReport& report, bool include_exact) {
  util::Table table({"event", "tier", "checks", "deciding kernel", "measured/expected"});
  std::string title = "counter trust (" +
                      (report.machine.empty() ? std::string("unnamed machine")
                                              : report.machine) +
                      ")";
  title += util::format(": %zu exact, %zu bounded, %zu suspect, %zu refuted",
                        report.count(TrustTier::kExact), report.count(TrustTier::kBounded),
                        report.count(TrustTier::kSuspect), report.count(TrustTier::kRefuted));
  table.set_title(std::move(title));
  table.set_align(2, util::Align::kRight);
  table.set_align(4, util::Align::kRight);

  usize folded_exact = 0;
  for (const EventTrust& row : report.rows()) {
    if (!include_exact && row.tier == TrustTier::kExact) {
      ++folded_exact;
      continue;
    }
    util::Style style = util::Style::kNone;
    if (row.tier == TrustTier::kRefuted) style = util::Style::kRed;
    if (row.tier == TrustTier::kSuspect) style = util::Style::kYellow;
    if (row.tier == TrustTier::kExact) style = util::Style::kDim;
    std::vector<util::Cell> cells;
    cells.push_back({std::string(sim::event_name(row.event)), style});
    cells.push_back({tier_name(row.tier), style});
    cells.push_back({std::to_string(row.checks), style});
    cells.push_back({row.kernel, style});
    cells.push_back({util::format("%.6f", row.observed_ratio), style});
    table.add_styled_row(std::move(cells));
  }
  if (folded_exact > 0) {
    table.add_styled_row({{util::format("(%zu exact events folded)", folded_exact),
                           util::Style::kDim},
                          {"", util::Style::kNone},
                          {"", util::Style::kNone},
                          {"", util::Style::kNone},
                          {"", util::Style::kNone}});
  }
  return table.render();
}

namespace {
std::optional<TrustReport>& active_slot() {
  static std::optional<TrustReport> slot;
  return slot;
}
}  // namespace

void set_active_trust_report(std::optional<TrustReport> report) {
  active_slot() = std::move(report);
}

const TrustReport* active_trust_report() {
  return active_slot() ? &*active_slot() : nullptr;
}

}  // namespace npat::validate
