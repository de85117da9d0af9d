#include "attacks/guess.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/detect.h"
#include "core/secrets.h"
#include "crypto/secret.h"
#include "stats/poisson_binomial.h"

namespace freqywm {

namespace {

/// The unordered pair {i, j}, i > j, with triangle index i(i-1)/2 + j.
std::pair<size_t, size_t> TrianglePair(size_t index) {
  size_t i = static_cast<size_t>(
      (1.0 + std::sqrt(1.0 + 8.0 * static_cast<double>(index))) / 2.0);
  while (i * (i - 1) / 2 > index) --i;  // repair the floating-point guess
  while ((i + 1) * i / 2 <= index) ++i;
  return {i, index - i * (i - 1) / 2};
}

}  // namespace

GuessAttackResult RunGuessAttack(const Histogram& watermarked,
                                 const GuessAttackSpec& spec, Rng& rng) {
  GuessAttackResult out;
  out.attempts = spec.attempts;

  const auto& entries = watermarked.entries();
  const size_t n = entries.size();
  if (n < 2 || spec.attempts == 0) return out;

  const size_t num_pairs = n * (n - 1) / 2;
  DetectOptions detect_opts;
  detect_opts.pair_threshold = spec.pair_threshold;
  detect_opts.min_pairs = spec.min_pairs;

  for (size_t a = 0; a < spec.attempts; ++a) {
    // Forge a secret deterministically from the attack RNG so runs are
    // reproducible.
    WatermarkSecret forged =
        GenerateSecret(spec.attacker_lambda_bits, rng.NextU64() | 1);

    // Distinct pairs, as in any key a verifier accepts: draw triangle
    // indices without replacement, one per unordered pair {i, j}.
    WatermarkSecrets claim;
    claim.r = std::move(forged);
    claim.z = spec.attacker_z;
    for (size_t index :
         rng.SampleWithoutReplacement(num_pairs, spec.claimed_pairs)) {
      auto [i, j] = TrianglePair(index);
      // Order by frequency as an honest owner would.
      if (entries[i].count < entries[j].count) std::swap(i, j);
      claim.pairs.push_back(
          SecretPair{entries[i].token, entries[j].token});
    }

    DetectResult dr = DetectWatermark(watermarked, claim, detect_opts);
    if (dr.accepted) ++out.successes;
  }

  out.success_rate = static_cast<double>(out.successes) /
                     static_cast<double>(out.attempts);
  // Mean modulus for a uniform draw over [0, z) conditioned on s >= 2 is
  // about z/2; the analytical per-pair probability uses that proxy.
  uint64_t mean_s = std::max<uint64_t>(2, spec.attacker_z / 2);
  out.per_pair_probability =
      PairFalsePositiveProbability(spec.pair_threshold, mean_s);
  return out;
}

}  // namespace freqywm
