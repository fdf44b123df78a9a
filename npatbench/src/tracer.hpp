// In-memory span recorder for the traced run.
//
// The benchmark opens a span around every call it makes into a toolkit
// module's public functions. Spans nest (a span's parent is whichever span
// was open when it started); a module's self time is the duration of its
// spans minus the part their child spans cover. Nothing is written until
// the run ends.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.hpp"

namespace npatbench {

using npat::i64;
using npat::u64;
using npat::usize;

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
double seconds_since(Clock::time_point start);

class Tracer {
 public:
  /// Opens a span on construction and closes it on destruction. A null
  /// tracer records nothing, so untraced callers share the same wrappers.
  class Span {
   public:
    Span(Tracer* tracer, const char* module, const char* call);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    usize index_ = 0;
  };

  Tracer();

  /// Self time per module, in seconds.
  std::map<std::string, double> self_seconds() const;
  /// Total (inclusive) duration of every span of `call`, in seconds.
  double call_seconds(std::string_view call) const;
  /// Number of spans of `call`.
  usize call_count(std::string_view call) const;
  /// Sum of self time over every span, in seconds.
  double covered_seconds() const;

  /// Drops every record (between measured jobs).
  void clear();

  /// Chrome trace-event JSON of every record.
  std::string to_chrome_json() const;

 private:
  struct Record {
    const char* module = "";  // string literals: a span costs no allocation
    const char* call = "";
    i64 start_ns = 0;
    i64 end_ns = 0;
    i64 child_ns = 0;
    i64 parent = -1;  // index of the enclosing span's record, -1 for a root
  };

  i64 now_ns() const;

  Clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<usize> open_;
};

}  // namespace npatbench
