// The integer pair kernel of table-backed detection (DESIGN.md §18): the
// fastmod identity at the edges of the modulus and the difference, exact
// residues for counts beyond 2^53 and 2^63, and a randomized property
// check of the one-off (secrets), histogram-table and dense-table
// overloads against `DetectWatermarkReference`.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/detect.h"
#include "crypto/secret.h"

namespace freqywm {
namespace {

constexpr uint64_t kTwo32 = uint64_t{1} << 32;
constexpr uint64_t kTwo53 = uint64_t{1} << 53;
constexpr uint64_t kTwo63 = uint64_t{1} << 63;
constexpr uint64_t kMax = ~uint64_t{0};

/// `(ci - cj) mod s` in `[0, s)` through 128-bit signed arithmetic — an
/// oracle sharing no code with `PairResidue`.
uint64_t WideResidue(uint64_t ci, uint64_t cj, uint64_t s) {
  const __int128 diff = static_cast<__int128>(ci) - static_cast<__int128>(cj);
  const __int128 m = static_cast<__int128>(s);
  return static_cast<uint64_t>(((diff % m) + m) % m);
}

/// The residue as detection computed it before the integer path: counts
/// through `double`, the difference in `int64`.
uint64_t RoundedResidue(uint64_t ci, uint64_t cj, uint64_t s) {
  const int64_t diff = static_cast<int64_t>(static_cast<double>(ci)) -
                       static_cast<int64_t>(static_cast<double>(cj));
  const int64_t m = static_cast<int64_t>(s);
  return static_cast<uint64_t>(((diff % m) + m) % m);
}

TEST(FastModTest, MultiplierMarksTheFastRange) {
  EXPECT_EQ(FastModMultiplier(0), 0u);
  EXPECT_EQ(FastModMultiplier(1), 0u);
  EXPECT_EQ(FastModMultiplier(kTwo32), 0u);
  EXPECT_EQ(FastModMultiplier(kMax), 0u);
  EXPECT_EQ(FastModMultiplier(2), kTwo63);
  EXPECT_EQ(FastModMultiplier(3), kMax / 3 + 1);
  EXPECT_NE(FastModMultiplier(kTwo32 - 1), 0u);
}

TEST(FastModTest, IdentityAtTheEdgesOfModulusAndDifference) {
  const std::vector<uint64_t> moduli = {
      1,          2,          3,          5,          7,
      130,        131,        1031,       65535,      65536,
      65537,      kTwo32 / 2 - 1, kTwo32 / 2, kTwo32 / 2 + 1, kTwo32 - 2,
      kTwo32 - 1, kTwo32,     kTwo32 + 1, kTwo53,     kTwo63 - 1,
      kTwo63,     kTwo63 + 1, kMax - 1,   kMax};
  for (uint64_t s : moduli) {
    const uint64_t magic = FastModMultiplier(s);
    const std::vector<uint64_t> mags = {
        0,          1,          2,          s - 1,      s,
        s + 1,      2 * s - 1,  2 * s,      kTwo32 - 2, kTwo32 - 1,
        kTwo32,     kTwo32 + 1, (kTwo32 - 1) / s * s, kTwo53 + 1,
        kTwo63,     kMax - 1,   kMax};
    for (uint64_t mag : mags) {
      EXPECT_EQ(FastMod(mag, s, magic), mag % s)
          << "mag " << mag << " s " << s;
    }
  }
  // Every 32-bit difference against a spread of 32-bit moduli.
  Rng rng(17);
  for (int trial = 0; trial < 200000; ++trial) {
    const uint64_t s = 2 + rng.UniformU64(kTwo32 - 2);
    const uint64_t mag = rng.UniformU64(kTwo32);
    ASSERT_EQ(FastMod(mag, s, FastModMultiplier(s)), mag % s)
        << "mag " << mag << " s " << s;
  }
}

TEST(FastModTest, PairResidueMatchesWideArithmetic) {
  const std::vector<uint64_t> counts = {0,      1,          130,
                                        131,    kTwo32 - 1, kTwo32,
                                        kTwo32 + 7, kTwo53 + 1, kTwo63 - 1,
                                        kTwo63, kMax - 3,   kMax};
  for (uint64_t s : {uint64_t{2}, uint64_t{3}, uint64_t{131},
                     kTwo32 - 1, kTwo32 + 3, kTwo63 + 5, kMax}) {
    for (uint64_t ci : counts) {
      for (uint64_t cj : counts) {
        EXPECT_EQ(PairResidue(ci, cj, s, FastModMultiplier(s)),
                  WideResidue(ci, cj, s))
            << "ci " << ci << " cj " << cj << " s " << s;
      }
    }
  }
}

/// A one-pair key whose modulus comes from a real table build.
struct OnePairKey {
  WatermarkSecrets secrets;
  uint64_t s = 0;
};

OnePairKey MakeOnePairKey(uint64_t z) {
  OnePairKey key;
  key.secrets.r = GenerateSecret(256, 23);
  key.secrets.z = z;
  for (int attempt = 0; key.s < 3; ++attempt) {
    key.secrets.pairs = {SecretPair{"hi-" + std::to_string(attempt),
                                    "lo-" + std::to_string(attempt)}};
    key.s = PairModulusTable::Build(key.secrets).pairs()[0].s;
  }
  return key;
}

DetectResult DetectBoth(const OnePairKey& key, uint64_t ci, uint64_t cj,
                        const DetectOptions& options) {
  auto hist = Histogram::FromCounts({{key.secrets.pairs[0].token_i, ci},
                                     {key.secrets.pairs[0].token_j, cj}});
  EXPECT_TRUE(hist.ok()) << hist.status();
  const DetectResult table =
      DetectWatermark(hist.value(), key.secrets, options);
  EXPECT_EQ(table,
            DetectWatermarkReference(hist.value(), key.secrets, options));
  return table;
}

TEST(ExactResidueTest, CountsAbove2To53VerifyWhereRoundingFailed) {
  const OnePairKey key = MakeOnePairKey(131);
  // ci - cj is an exact multiple of s (residue 0), but both counts are
  // odd and above 2^53, so `double` rounds them to different even
  // neighbours and the rounded difference is off by up to 2.
  const uint64_t cj = kTwo53 + 1;
  uint64_t ci = 0;
  for (uint64_t m = 1; m < 1000 && ci == 0; ++m) {
    const uint64_t candidate = cj + m * key.s;
    if (RoundedResidue(candidate, cj, key.s) != 0) ci = candidate;
  }
  ASSERT_NE(ci, 0u) << "no count pair where rounding moves the residue";
  ASSERT_EQ(WideResidue(ci, cj, key.s), 0u);

  DetectOptions options;
  options.pair_threshold = 0;
  options.min_pairs = 1;
  const DetectResult result = DetectBoth(key, ci, cj, options);
  EXPECT_EQ(result.pairs_found, 1u);
  EXPECT_EQ(result.pairs_verified, 1u);
  EXPECT_TRUE(result.accepted);
}

TEST(ExactResidueTest, CountAtOrAbove2To63IsReducedExactly) {
  const OnePairKey key = MakeOnePairKey(131);
  DetectOptions options;
  options.pair_threshold = 0;
  options.min_pairs = 1;
  // A multiple of s just above 2^63 (the old int64 cast wrapped it
  // negative): residue 0, verified.
  const uint64_t cj = 7;
  const uint64_t ci = cj + (kTwo63 / key.s + 1) * key.s;
  ASSERT_GE(ci, kTwo63);
  EXPECT_EQ(DetectBoth(key, ci, cj, options).pairs_verified, 1u);
  // One above it: residue 1, rejected at t = 0 and accepted at t = 1.
  EXPECT_EQ(DetectBoth(key, ci + 1, cj, options).pairs_verified, 0u);
  options.pair_threshold = 1;
  EXPECT_EQ(DetectBoth(key, ci + 1, cj, options).pairs_verified, 1u);
  // Flipped order: (cj - ci) mod s = s - 1, which only the symmetric
  // test accepts at t = 1.
  EXPECT_EQ(DetectBoth(key, cj, ci + 1, options).pairs_verified, 0u);
  options.symmetric_residue = true;
  EXPECT_EQ(DetectBoth(key, cj, ci + 1, options).pairs_verified, 1u);
}

/// Counts that cover the kernel's branches: small, around 2^32 (so the
/// difference falls on both sides of the fastmod range), and up to 2^40.
uint64_t DrawCount(Rng& rng) {
  switch (rng.UniformU64(4)) {
    case 0:
      return 1 + rng.UniformU64(2000);
    case 1:
      return kTwo32 - 1000 + rng.UniformU64(2000);
    case 2:
      return 1 + rng.UniformU64(kTwo32 * 2);
    default:
      return 1 + rng.UniformU64(uint64_t{1} << 40);
  }
}

TEST(DetectKernelPropertyTest, EveryOverloadMatchesReference) {
  Rng rng(2024);
  const std::vector<uint64_t> z_choices = {2, 3, 131, 1031, kTwo32 - 5,
                                           kTwo32 + 17, uint64_t{1} << 40};
  for (int trial = 0; trial < 300; ++trial) {
    // Keys over a small token pool, so pairs share tokens and some pair
    // tokens are absent from the suspect.
    WatermarkSecrets secrets;
    secrets.r = GenerateSecret(256, 1000 + trial);
    // Fixed edges, moduli just below 2^32 (the fastmod range's top, where
    // a 33-bit difference must take the `%` path), and up to 2^40.
    switch (trial % 3) {
      case 0:
        secrets.z = z_choices[rng.UniformU64(z_choices.size())];
        break;
      case 1:
        secrets.z = kTwo32 - rng.UniformU64(kTwo32 / 2);
        break;
      default:
        secrets.z = 2 + rng.UniformU64(uint64_t{1} << 40);
    }
    const size_t pool = 4 + rng.UniformU64(40);
    const size_t num_pairs = 1 + rng.UniformU64(30);
    for (size_t p = 0; p < num_pairs; ++p) {
      secrets.pairs.push_back(
          SecretPair{"t" + std::to_string(rng.UniformU64(pool)),
                     "t" + std::to_string(rng.UniformU64(pool))});
    }
    const PairModulusTable table = PairModulusTable::Build(secrets);

    // Random counts would put almost every residue far from the
    // threshold, where a wrong residue still gives the right verdict. So
    // the first pair over each two fresh tokens gets a difference of
    // m·s + d or m·s − d (d ≤ 6) — a residue at the threshold's edge, on
    // either side of s — in either order; the rest are random.
    std::map<Token, uint64_t> assigned;
    for (size_t p = 0; p < num_pairs; ++p) {
      const SecretPair& pair = secrets.pairs[p];
      const uint64_t s = table.pairs()[p].s;
      if (s < 2 || pair.token_i == pair.token_j ||
          assigned.count(pair.token_i) || assigned.count(pair.token_j)) {
        continue;
      }
      const uint64_t d = rng.UniformU64(7);
      uint64_t mag = DrawCount(rng) / s * s;
      mag = rng.Bernoulli(0.5) || mag < d ? mag + d : mag - d;
      const uint64_t low = 1 + rng.UniformU64(uint64_t{1} << 40);
      const bool flipped = rng.Bernoulli(0.5);
      assigned[pair.token_i] = flipped ? low : low + mag;
      assigned[pair.token_j] = flipped ? low + mag : low;
    }
    std::vector<HistogramEntry> counts;
    for (size_t t = 0; t < pool; ++t) {
      const Token token = "t" + std::to_string(t);
      if (rng.Bernoulli(0.15)) continue;  // absent from the suspect
      auto it = assigned.find(token);
      counts.push_back(HistogramEntry{
          token, it != assigned.end() ? it->second : DrawCount(rng)});
    }
    if (counts.empty()) counts.push_back(HistogramEntry{"t0", 1});
    auto suspect = Histogram::FromCounts(counts);
    ASSERT_TRUE(suspect.ok()) << suspect.status();

    // Dense arrays with a shuffled, padded id map, so the indirection
    // is exercised rather than the identity.
    const size_t width = table.tokens().size() + 5;
    std::vector<uint32_t> ids(width);
    for (size_t t = 0; t < width; ++t) ids[t] = static_cast<uint32_t>(t);
    rng.Shuffle(ids);
    std::vector<uint64_t> dense(width, 0);
    std::vector<uint8_t> present(width, 0);
    for (size_t t = 0; t < table.tokens().size(); ++t) {
      const auto count = suspect.value().CountOf(table.tokens()[t]);
      if (!count) continue;
      dense[ids[t]] = *count;
      present[ids[t]] = 1;
    }

    for (uint64_t threshold : {0, 1, 5}) {
      for (bool symmetric : {false, true}) {
        for (double rescale : {0.0, 0.5, 3.0}) {
          DetectOptions options;
          options.pair_threshold = threshold;
          options.symmetric_residue = symmetric;
          options.rescale_factor = rescale;
          options.min_pairs = 1 + rng.UniformU64(num_pairs);
          const DetectResult expected =
              DetectWatermarkReference(suspect.value(), secrets, options);
          ASSERT_EQ(DetectWatermark(suspect.value(), secrets, options),
                    expected)
              << "trial " << trial << " t " << threshold << " sym "
              << symmetric << " rescale " << rescale;
          ASSERT_EQ(DetectWatermark(suspect.value(), table, options),
                    expected)
              << "trial " << trial << " t " << threshold << " sym "
              << symmetric << " rescale " << rescale;
          ASSERT_EQ(DetectWatermark(table, ids.data(), dense.data(),
                                    present.data(), options),
                    expected)
              << "trial " << trial << " t " << threshold << " sym "
              << symmetric << " rescale " << rescale;
        }
      }
    }
  }
}

}  // namespace
}  // namespace freqywm
