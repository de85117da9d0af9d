#include "common/random.h"

#include <unordered_map>

namespace freqywm {

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.Next();
  // A pathological all-zero state cannot occur: SplitMix64 is a bijection and
  // emits 0 for at most one of the four draws.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x9E3779B97F4A7C15ULL;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<int64_t>(NextU64());  // full 64-bit range
  return lo + static_cast<int64_t>(UniformU64(span));
}

double Rng::UniformDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t universe, size_t n) {
  if (n > universe) n = universe;
  // Step i swaps slot i with a uniform slot j in [i, universe). Slot i is
  // never read again, so only the values moved into slots j > i are kept.
  std::unordered_map<size_t, size_t> displaced;
  displaced.reserve(n);
  auto value_at = [&](size_t slot) {
    auto it = displaced.find(slot);
    return it == displaced.end() ? slot : it->second;
  };
  std::vector<size_t> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t j = i + static_cast<size_t>(UniformU64(universe - i));
    const size_t at_i = value_at(i);
    out.push_back(value_at(j));
    displaced[j] = at_i;
  }
  return out;
}

}  // namespace freqywm
