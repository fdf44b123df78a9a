#include "tracer.hpp"

#include "util/json.hpp"

namespace npatbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Tracer::Tracer() : origin_(Clock::now()) {}

i64 Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
}

Tracer::Span::Span(Tracer* tracer, const char* module, const char* call) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Record record;
  record.module = module;
  record.call = call;
  record.parent = tracer_->open_.empty() ? -1 : static_cast<i64>(tracer_->open_.back());
  index_ = tracer_->records_.size();
  tracer_->records_.push_back(record);
  tracer_->open_.push_back(index_);
  // Stamp last so the bookkeeping above is not charged to the span.
  tracer_->records_[index_].start_ns = tracer_->now_ns();
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  Record& record = tracer_->records_[index_];
  record.end_ns = tracer_->now_ns();
  tracer_->open_.pop_back();
  if (record.parent >= 0) {
    tracer_->records_[static_cast<usize>(record.parent)].child_ns +=
        record.end_ns - record.start_ns;
  }
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::map<std::string, double> out;
  for (const Record& record : records_) {
    out[record.module] +=
        static_cast<double>(record.end_ns - record.start_ns - record.child_ns) * 1e-9;
  }
  return out;
}

double Tracer::call_seconds(std::string_view call) const {
  i64 total = 0;
  for (const Record& record : records_) {
    if (call == record.call) total += record.end_ns - record.start_ns;
  }
  return static_cast<double>(total) * 1e-9;
}

usize Tracer::call_count(std::string_view call) const {
  usize count = 0;
  for (const Record& record : records_) count += call == record.call ? 1 : 0;
  return count;
}

double Tracer::covered_seconds() const {
  i64 total = 0;
  for (const Record& record : records_) total += record.end_ns - record.start_ns - record.child_ns;
  return static_cast<double>(total) * 1e-9;
}

void Tracer::clear() {
  records_.clear();
  open_.clear();
}

std::string Tracer::to_chrome_json() const {
  npat::util::JsonArray events;
  for (const Record& record : records_) {
    npat::util::JsonObject event;
    event["name"] = record.call;
    event["cat"] = record.module;
    event["ph"] = "X";
    event["ts"] = static_cast<double>(record.start_ns) / 1000.0;
    event["dur"] = static_cast<double>(record.end_ns - record.start_ns) / 1000.0;
    event["pid"] = 1;
    event["tid"] = 1;
    events.emplace_back(std::move(event));
  }
  npat::util::JsonObject doc;
  doc["traceEvents"] = npat::util::Json(std::move(events));
  return npat::util::Json(std::move(doc)).dump() + "\n";
}

}  // namespace npatbench
