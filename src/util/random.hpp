// Deterministic random number generation for simulation and workloads.
//
// Two generators are provided:
//  * Xoshiro256ss — the toolkit's general-purpose engine (fast, 256-bit
//    state, passes BigCrush); used by the simulator for latency jitter,
//    sampling decisions and workload randomization.
//  * BsdLcg — the BSD linear congruential engine from the paper's parallel
//    sort micro-benchmark (Listing 3): "a multiply–add ignoring overflows".
#pragma once

#include <array>
#include <limits>

#include "util/types.hpp"

namespace npat::util {

/// xoshiro256** by Blackman & Vigna (public domain reference algorithm).
class Xoshiro256ss {
 public:
  using result_type = u64;

  explicit Xoshiro256ss(u64 seed = 0x9e3779b97f4a7c15ULL) noexcept { reseed(seed); }

  /// Re-initializes the state from a single seed via SplitMix64.
  void reseed(u64 seed) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return std::numeric_limits<u64>::max(); }

  result_type operator()() noexcept {
    const u64 result = rotl(state_[1] * 5, 7) * 9;
    const u64 t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). n must be > 0.
  u64 below(u64 n) noexcept;

  /// Uniform integer in [lo, hi] inclusive.
  i64 range(i64 lo, i64 hi) noexcept { return lo + static_cast<i64>(below(static_cast<u64>(hi - lo + 1))); }

  /// Bernoulli trial with probability p.
  bool chance(double p) noexcept { return uniform() < p; }

  /// Standard normal deviate (Box–Muller, cached pair).
  double normal() noexcept;

  /// Normal deviate with the given mean and standard deviation.
  double normal(double mean, double sd) noexcept { return mean + sd * normal(); }

 private:
  static constexpr u64 rotl(u64 x, int k) noexcept { return (x << k) | (x >> (64 - k)); }

  std::array<u64, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// The BSD linear congruential engine used verbatim in the paper's
/// Listing 3: x' = x * 1103515245 + 12345 (mod 2^32).
class BsdLcg {
 public:
  using result_type = u32;

  explicit BsdLcg(u32 seed = 1337) noexcept : state_(seed) {}

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return std::numeric_limits<u32>::max(); }

  result_type operator()() noexcept {
    state_ = state_ * 1103515245u + 12345u;
    return state_;
  }

  u32 state() const noexcept { return state_; }

 private:
  u32 state_;
};

/// SplitMix64 step, exposed for seeding sub-generators deterministically.
u64 splitmix64(u64& state) noexcept;

}  // namespace npat::util
