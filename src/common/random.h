#ifndef FREQYWM_COMMON_RANDOM_H_
#define FREQYWM_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace freqywm {

/// SplitMix64: a tiny, high-quality 64-bit mixing generator.
///
/// Used to seed the main generator and for cheap stateless hashing of seeds.
/// Reference: Steele, Lea, Flood — "Fast Splittable Pseudorandom Number
/// Generators" (OOPSLA 2014).
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  /// Returns the next 64-bit value and advances the state.
  uint64_t Next();

 private:
  uint64_t state_;
};

/// Xoshiro256** — the library's deterministic pseudo-random generator.
///
/// All experiment code takes an explicit seed so every table and figure in
/// EXPERIMENTS.md is bit-reproducible. This is a substrate utility, not a
/// cryptographic primitive: watermarking secrets are derived in
/// `crypto::GenerateSecret` (which mixes this generator into SHA-256 output
/// for high-entropy `R`).
class Rng {
 public:
  /// Seeds the generator; identical seeds yield identical streams.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit output. Inline, like `UniformU64`: row passes
  /// such as the dataset transform's drop pass draw millions of times.
  uint64_t NextU64() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in `[0, bound)`. Precondition: `bound > 0`.
  /// Uses Lemire's nearly-divisionless rejection method (unbiased;
  /// Lemire 2019, "Fast Random Integer Generation in an Interval").
  uint64_t UniformU64(uint64_t bound) {
    uint64_t x = NextU64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t l = static_cast<uint64_t>(m);
    if (l < bound) {
      const uint64_t threshold = -bound % bound;
      while (l < threshold) {
        x = NextU64();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform integer in `[lo, hi]` inclusive. Precondition: `lo <= hi`.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in `[0, 1)` with 53 bits of precision.
  double UniformDouble();

  /// Bernoulli trial with success probability `p` (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Fisher–Yates shuffle of `items` in place.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformU64(i));
      std::swap(items[i - 1], items[j]);
    }
  }

  /// Samples `n` indices uniformly without replacement from `[0, universe)`
  /// (`n` is clamped to `universe`), in draw order. A partial Fisher–Yates
  /// over the identity permutation that stores only the displaced slots:
  /// O(n) time and memory whatever the universe.
  std::vector<size_t> SampleWithoutReplacement(size_t universe, size_t n);

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
};

}  // namespace freqywm

#endif  // FREQYWM_COMMON_RANDOM_H_
