// Deterministic, seedable random source. Every stochastic component in the
// simulation (IPID counters, port/TXID randomisation, population sampling,
// latency jitter) draws from an Rng owned by its scenario, so whole
// experiments replay bit-identically from a seed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "common/types.h"

namespace dnstime {

/// SplitMix64 finalizer. Mixes up to three words (e.g. campaign seed,
/// scenario id, trial index) into one well-distributed seed, so every
/// trial owns a statistically independent stream without any engine being
/// shared across threads.
[[nodiscard]] constexpr u64 mix_seed(u64 a, u64 b = 0, u64 c = 0) {
  u64 z = a;
  auto mix = [](u64 x) constexpr {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  };
  z = mix(z);
  z = mix(z ^ b);
  z = mix(z ^ c);
  return z;
}

class Rng {
 public:
  explicit Rng(u64 seed = 0x5eed) : engine_(seed) {}

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] u64 uniform(u64 lo, u64 hi) {
    return std::uniform_int_distribution<u64>(lo, hi)(engine_);
  }
  [[nodiscard]] u32 next_u32() {
    return static_cast<u32>(uniform(0, 0xFFFFFFFFull));
  }
  [[nodiscard]] u16 next_u16() { return static_cast<u16>(uniform(0, 0xFFFF)); }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform01() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }
  /// Bernoulli trial with success probability p.
  [[nodiscard]] bool chance(double p) { return uniform01() < p; }

  /// Sample k distinct indices from [0, n) (k <= n), order randomised.
  [[nodiscard]] std::vector<std::size_t> sample_indices(std::size_t n,
                                                        std::size_t k) {
    std::vector<std::size_t> idx(n);
    for (std::size_t i = 0; i < n; ++i) idx[i] = i;
    for (std::size_t i = 0; i < k && i < n; ++i) {
      std::size_t j = i + static_cast<std::size_t>(uniform(0, n - i - 1));
      std::swap(idx[i], idx[j]);
    }
    idx.resize(k < n ? k : n);
    return idx;
  }

  template <typename T>
  void shuffle(std::vector<T>& v) {
    std::shuffle(v.begin(), v.end(), engine_);
  }

  /// Derive an independent child stream (for per-component determinism).
  [[nodiscard]] Rng fork() { return Rng(uniform(0, ~u64{0})); }

 private:
  std::mt19937_64 engine_;
};

}  // namespace dnstime
