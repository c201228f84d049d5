// Deterministic random number generation for workload synthesis.
//
// Every experiment takes an explicit seed; a fixed seed reproduces the exact
// event sequence. The generator is xoshiro256++, seeded via splitmix64 so that
// small consecutive seeds give unrelated streams.
#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

#include <cmath>
#include <cstdint>

#include "src/common/logging.h"

namespace ursa {

class Rng {
 public:
  explicit Rng(uint64_t seed) {
    // splitmix64 expansion of the seed into the four state words.
    uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }

  // Uniform 64-bit value.
  uint64_t NextU64() {
    const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform double in [0, 1).
  double NextDouble() { return static_cast<double>(NextU64() >> 11) * 0x1.0p-53; }

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    DCHECK(lo <= hi);
    return lo + (hi - lo) * NextDouble();
  }

  // Uniform integer in [0, n).
  uint64_t UniformInt(uint64_t n) {
    DCHECK(n > 0);
    return NextU64() % n;
  }

  // Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    DCHECK(lo <= hi);
    return lo + static_cast<int64_t>(UniformInt(static_cast<uint64_t>(hi - lo + 1)));
  }

  bool Bernoulli(double p) { return NextDouble() < p; }

  // Standard normal via Box-Muller (one value per call; the spare is dropped
  // to keep the state trajectory simple and reproducible).
  double Normal(double mean = 0.0, double stddev = 1.0) {
    double u1 = NextDouble();
    while (u1 <= 1e-300) {
      u1 = NextDouble();
    }
    const double u2 = NextDouble();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    return mean + stddev * mag * std::cos(2.0 * M_PI * u2);
  }

  double Exponential(double rate) {
    DCHECK(rate > 0);
    double u = NextDouble();
    while (u <= 1e-300) {
      u = NextDouble();
    }
    return -std::log(u) / rate;
  }

  // Bounded Zipf-like skew multiplier used for partition size skew: returns a
  // value in [1/skew, skew] with mean roughly 1. skew = 1 means no skew.
  double SkewFactor(double skew) {
    DCHECK(skew >= 1.0);
    if (skew == 1.0) {
      return 1.0;
    }
    const double e = Uniform(-1.0, 1.0);
    return std::pow(skew, e);
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

}  // namespace ursa

#endif  // SRC_COMMON_RNG_H_
