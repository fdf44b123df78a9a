// One FNV-1a digest of every raw counter sample in a figure's measurements.
// The figure tables print rounded values (`3.18 M`), so two runs can print
// the same table from different counters; their digests differ.
#pragma once

#include <bit>
#include <cstdio>
#include <vector>

#include "evsel/measurement.hpp"

namespace npat::bench {

/// Folds, in order, each measurement's recorded events and each event's
/// per-repetition samples (as IEEE-754 bits), then prints the digest.
inline void print_counter_digest(const std::vector<evsel::Measurement>& measurements) {
  u64 hash = 14695981039346656037ull;
  u64 samples = 0;
  const auto fold = [&hash](u64 word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xff;
      hash *= 1099511628211ull;
    }
  };
  for (const auto& measurement : measurements) {
    for (const sim::Event event : measurement.recorded_events()) {
      fold(static_cast<u64>(event));
      for (const double sample : measurement.samples(event)) {
        fold(std::bit_cast<u64>(sample));
        ++samples;
      }
    }
  }
  std::printf("raw counter digest %016llx (%llu samples)\n",
              static_cast<unsigned long long>(hash), static_cast<unsigned long long>(samples));
}

}  // namespace npat::bench
