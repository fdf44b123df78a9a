#include "util/random.hpp"

#include <cmath>

#include "util/check.hpp"

namespace npat::util {

u64 splitmix64(u64& state) noexcept {
  u64 z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Xoshiro256ss::reseed(u64 seed) noexcept {
  u64 sm = seed;
  for (auto& s : state_) s = splitmix64(sm);
  // All-zero state is invalid for xoshiro; splitmix cannot produce four
  // zeros from any seed, but guard anyway.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
  has_cached_normal_ = false;
}

u64 Xoshiro256ss::below(u64 n) noexcept {
  NPAT_DCHECK(n > 0);
  // Lemire-style rejection to avoid modulo bias.
  const u64 threshold = (0 - n) % n;
  for (;;) {
    const u64 r = (*this)();
    if (r >= threshold) return r % n;
  }
}

double Xoshiro256ss::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

}  // namespace npat::util
