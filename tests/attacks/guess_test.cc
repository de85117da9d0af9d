#include "attacks/guess.h"

#include <gtest/gtest.h>

#include "core/watermark.h"
#include "datagen/power_law.h"

namespace freqywm {
namespace {

Histogram MakeWatermarked(uint64_t seed = 42) {
  Rng rng(seed);
  PowerLawSpec spec;
  spec.num_tokens = 150;
  spec.sample_size = 200000;
  spec.alpha = 0.5;
  Histogram original = GeneratePowerLawHistogram(spec, rng);
  GenerateOptions o;
  o.budget_percent = 2.0;
  o.modulus_bound = 131;
  o.seed = seed;
  auto r = WatermarkGenerator(o).GenerateFromHistogram(original);
  EXPECT_TRUE(r.ok());
  return std::move(r.value().watermarked);
}

TEST(GuessAttackTest, StrictThresholdsMakeGuessingHopeless) {
  Histogram wm = MakeWatermarked();
  GuessAttackSpec spec;
  spec.attempts = 300;
  spec.claimed_pairs = 10;
  spec.min_pairs = 10;    // all pairs must verify
  spec.pair_threshold = 0;
  Rng rng(1);
  GuessAttackResult r = RunGuessAttack(wm, spec, rng);
  EXPECT_EQ(r.successes, 0u);
  EXPECT_DOUBLE_EQ(r.success_rate, 0.0);
  // Analytical per-pair probability ~ 1/65 with z=131.
  EXPECT_LT(r.per_pair_probability, 0.05);
}

TEST(GuessAttackTest, LooseThresholdsLetSomeGuessesThrough) {
  // Sanity check that the simulator is not vacuously failing everything:
  // with t covering most residues and k = 1, forged claims verify often.
  Histogram wm = MakeWatermarked(7);
  GuessAttackSpec spec;
  spec.attempts = 100;
  spec.claimed_pairs = 5;
  spec.min_pairs = 1;
  spec.pair_threshold = 100;  // nearly every residue passes under z = 131
  spec.attacker_z = 131;
  Rng rng(2);
  GuessAttackResult r = RunGuessAttack(wm, spec, rng);
  EXPECT_GT(r.success_rate, 0.5);
}

TEST(GuessAttackTest, SuccessRateDropsWithK) {
  Histogram wm = MakeWatermarked(9);
  Rng rng(3);
  double prev_rate = 1.1;
  for (size_t k : {1ull, 3ull, 6ull}) {
    GuessAttackSpec spec;
    spec.attempts = 200;
    spec.claimed_pairs = 6;
    spec.min_pairs = k;
    spec.pair_threshold = 8;  // moderate
    Rng local(rng.NextU64());
    GuessAttackResult r = RunGuessAttack(wm, spec, local);
    EXPECT_LE(r.success_rate, prev_rate + 0.05) << "k=" << k;
    prev_rate = r.success_rate;
  }
}

TEST(GuessAttackTest, EmptySpecHandled) {
  Histogram wm = MakeWatermarked(11);
  GuessAttackSpec spec;
  spec.attempts = 0;
  Rng rng(4);
  GuessAttackResult r = RunGuessAttack(wm, spec, rng);
  EXPECT_EQ(r.attempts, 0u);
  EXPECT_EQ(r.successes, 0u);
}

TEST(GuessAttackTest, DeterministicForSeed) {
  Histogram wm = MakeWatermarked(13);
  GuessAttackSpec spec;
  spec.attempts = 50;
  spec.min_pairs = 2;
  spec.pair_threshold = 5;
  Rng r1(5), r2(5);
  GuessAttackResult a = RunGuessAttack(wm, spec, r1);
  GuessAttackResult b = RunGuessAttack(wm, spec, r2);
  EXPECT_EQ(a.successes, b.successes);
}

TEST(GuessAttackTest, ClaimsDistinctPairsOnly) {
  // Two tokens make one pair. A claim that repeated it would count its
  // residue twice, and with t = z every residue passes, so such claims
  // reached k = 2 on one pair. The claim is capped at n(n-1)/2 = 1 pair.
  auto hist = Histogram::FromCounts({{"a", 100}, {"b", 50}});
  ASSERT_TRUE(hist.ok()) << hist.status();
  GuessAttackSpec spec;
  spec.attempts = 100;
  spec.claimed_pairs = 2;
  spec.min_pairs = 2;
  spec.pair_threshold = spec.attacker_z;
  Rng rng(1);
  GuessAttackResult r = RunGuessAttack(hist.value(), spec, rng);
  EXPECT_EQ(r.attempts, 100u);
  EXPECT_EQ(r.successes, 0u);
}

}  // namespace
}  // namespace freqywm
