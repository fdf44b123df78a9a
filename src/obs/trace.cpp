#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <map>

#include "util/strings.hpp"

namespace npat::obs {

namespace {

u64 steady_now_us() {
  static const auto start = std::chrono::steady_clock::now();
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::microseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count());
}

}  // namespace

Tracer::Tracer(usize capacity) : capacity_(capacity), now_us_(steady_now_us) {}

void Tracer::set_clock(Clock now_us) {
  std::lock_guard lock(mutex_);
  now_us_ = now_us ? std::move(now_us) : Clock(steady_now_us);
}

Tracer::ThreadState& Tracer::state_locked() {
  auto [it, inserted] = threads_.try_emplace(std::this_thread::get_id());
  if (inserted) it->second.tid = next_tid_++;
  return it->second;
}

bool Tracer::begin_span(std::string_view name) {
  if (!enabled()) return false;
  std::lock_guard lock(mutex_);
  ThreadState& state = state_locked();
  OpenSpan open;
  open.name = std::string(name);
  open.path = state.stack.empty() ? open.name : state.stack.back().path + ";" + open.name;
  open.start_us = now_us_();
  state.stack.push_back(std::move(open));
  return true;
}

void Tracer::end_span() {
  std::lock_guard lock(mutex_);
  const auto it = threads_.find(std::this_thread::get_id());
  if (it == threads_.end() || it->second.stack.empty()) return;
  ThreadState& state = it->second;
  OpenSpan open = std::move(state.stack.back());
  state.stack.pop_back();
  const u64 end_us = now_us_();
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  SpanEvent event;
  event.name = std::move(open.name);
  event.path = std::move(open.path);
  event.tid = state.tid;
  event.depth = static_cast<u32>(state.stack.size());
  event.start_us = open.start_us;
  event.duration_us = end_us > open.start_us ? end_us - open.start_us : 0;
  spans_.push_back(std::move(event));
}

void Tracer::instant(std::string_view name, std::string detail) {
  if (!enabled()) return;
  std::lock_guard lock(mutex_);
  ThreadState& state = state_locked();
  if (instants_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  InstantEvent event;
  event.name = std::string(name);
  event.detail = std::move(detail);
  event.tid = state.tid;
  event.timestamp_us = now_us_();
  instants_.push_back(std::move(event));
}

std::vector<SpanEvent> Tracer::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

std::vector<InstantEvent> Tracer::instants() const {
  std::lock_guard lock(mutex_);
  return instants_;
}

usize Tracer::dropped() const {
  std::lock_guard lock(mutex_);
  return dropped_;
}

void Tracer::clear() {
  std::lock_guard lock(mutex_);
  spans_.clear();
  instants_.clear();
  threads_.clear();
  next_tid_ = 0;
  dropped_ = 0;
}

util::Json Tracer::chrome_trace() const {
  std::lock_guard lock(mutex_);
  util::JsonArray events;
  events.reserve(spans_.size() + instants_.size());
  for (const SpanEvent& span : spans_) {
    util::JsonObject event;
    event["ph"] = "X";
    event["cat"] = "npat";
    event["name"] = span.name;
    event["pid"] = 1;
    event["tid"] = static_cast<u64>(span.tid);
    event["ts"] = span.start_us;
    event["dur"] = span.duration_us;
    util::JsonObject args;
    args["depth"] = static_cast<u64>(span.depth);
    args["path"] = span.path;
    event["args"] = std::move(args);
    events.emplace_back(std::move(event));
  }
  for (const InstantEvent& instant : instants_) {
    util::JsonObject event;
    event["ph"] = "i";
    event["cat"] = "npat";
    event["name"] = instant.name;
    event["pid"] = 1;
    event["tid"] = static_cast<u64>(instant.tid);
    event["ts"] = instant.timestamp_us;
    event["s"] = "t";
    if (!instant.detail.empty()) {
      util::JsonObject args;
      args["detail"] = instant.detail;
      event["args"] = std::move(args);
    }
    events.emplace_back(std::move(event));
  }
  util::JsonObject doc;
  doc["displayTimeUnit"] = "ms";
  doc["traceEvents"] = std::move(events);
  return doc;
}

std::string Tracer::flame_summary() const {
  std::lock_guard lock(mutex_);
  struct Folded {
    u64 count = 0;
    u64 total_us = 0;
    u64 child_us = 0;
  };
  std::map<std::string, Folded> folded;
  for (const SpanEvent& span : spans_) {
    Folded& f = folded[span.path];
    ++f.count;
    f.total_us += span.duration_us;
  }
  for (const SpanEvent& span : spans_) {
    if (span.depth == 0) continue;
    const auto cut = span.path.rfind(';');
    if (cut == std::string::npos) continue;
    const auto parent = folded.find(span.path.substr(0, cut));
    if (parent != folded.end()) parent->second.child_us += span.duration_us;
  }

  std::vector<std::pair<std::string, Folded>> rows(folded.begin(), folded.end());
  std::stable_sort(rows.begin(), rows.end(),
                   [](const auto& a, const auto& b) { return a.second.total_us > b.second.total_us; });

  usize width = 9;  // "span path"
  for (const auto& [path, f] : rows) width = std::max(width, util::display_width(path));

  std::string out = util::pad_right("span path", width) + "  " + util::pad_left("count", 8) +
                    "  " + util::pad_left("total us", 12) + "  " + util::pad_left("self us", 12) +
                    "\n";
  for (const auto& [path, f] : rows) {
    const u64 self_us = f.total_us >= f.child_us ? f.total_us - f.child_us : 0;
    out += util::pad_right(path, width) + "  " +
           util::pad_left(util::format("%llu", static_cast<unsigned long long>(f.count)), 8) +
           "  " +
           util::pad_left(util::format("%llu", static_cast<unsigned long long>(f.total_us)), 12) +
           "  " +
           util::pad_left(util::format("%llu", static_cast<unsigned long long>(self_us)), 12) +
           "\n";
  }
  if (dropped_ > 0) {
    out += util::format("(%llu events dropped at capacity %llu)\n",
                        static_cast<unsigned long long>(dropped_),
                        static_cast<unsigned long long>(capacity_));
  }
  return out;
}

}  // namespace npat::obs
