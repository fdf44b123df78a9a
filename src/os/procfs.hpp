// procfs-style process introspection. Phasenprüfer "uses the memory
// footprint (reserved memory, obtained through procfs)" — this module is
// that interface: a sampler that records (time, footprint) pairs while a
// program runs, at a configurable rate (default 10 Hz of simulated time).
#pragma once

#include <functional>
#include <vector>

#include "os/vm.hpp"
#include "util/types.hpp"

namespace npat::os {

struct FootprintSample {
  Cycles timestamp = 0;
  u64 reserved_bytes = 0;
  u64 resident_bytes = 0;
};

class FootprintRecorder {
 public:
  explicit FootprintRecorder(const AddressSpace& space) : space_(&space) {}

  /// Sampler callback to register with the runner.
  void sample(Cycles now) {
    samples_.push_back(
        FootprintSample{now, space_->footprint_bytes(), space_->resident_bytes()});
  }

  const std::vector<FootprintSample>& samples() const noexcept { return samples_; }
  void clear() { samples_.clear(); }

 private:
  const AddressSpace* space_;
  std::vector<FootprintSample> samples_;
};

}  // namespace npat::os
