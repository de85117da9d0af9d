#ifndef FREQYWM_ATTACKS_GUESS_H_
#define FREQYWM_ATTACKS_GUESS_H_

#include <cstddef>
#include <cstdint>

#include "common/random.h"
#include "core/options.h"
#include "data/histogram.h"

namespace freqywm {

/// Parameters of the empirical guess (brute-force) attack study (§V-A).
struct GuessAttackSpec {
  /// Number of independent forged secrets the attacker tries.
  size_t attempts = 1000;
  /// Bits of the forged secret R*. Real deployments use 256; the empirical
  /// study uses tiny values to show the success curve collapsing.
  size_t attacker_lambda_bits = 16;
  /// Modulus bound z* the attacker assumes (Kerckhoffs: z may be public).
  uint64_t attacker_z = 131;
  /// Number of pairs l the attacker claims (>= k to matter).
  size_t claimed_pairs = 10;
  /// Detection thresholds the verifier applies to the attacker's claim.
  uint64_t pair_threshold = 0;
  size_t min_pairs = 10;
};

/// Result of the empirical guess attack.
struct GuessAttackResult {
  size_t attempts = 0;
  size_t successes = 0;
  /// Empirical success probability.
  double success_rate = 0.0;
  /// The analytical per-pair accidental pass probability (t+1)/E[s] under a
  /// uniform modulus in [2, z); the paper's negligibility argument compounds
  /// this over k pairs.
  double per_pair_probability = 0.0;
};

/// Simulates the guess attack: for each attempt the adversary forges a
/// random secret R*, picks `claimed_pairs` distinct random token pairs
/// from the watermarked data (all it can see; at most n(n-1)/2 pairs over
/// n tokens), and submits this as its own `Lsc`.
/// The attack succeeds when detection verifies at least `min_pairs` pairs.
///
/// With realistic parameters the success rate is indistinguishable from the
/// chance of `min_pairs` residues landing below `t` simultaneously —
/// negligible in λ; this function makes the claim measurable.
GuessAttackResult RunGuessAttack(const Histogram& watermarked,
                                 const GuessAttackSpec& spec, Rng& rng);

}  // namespace freqywm

#endif  // FREQYWM_ATTACKS_GUESS_H_
