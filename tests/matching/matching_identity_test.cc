// Identity gate for the blossom matcher: a digest of `mate` on a small
// sell_hist-like graph and on 200 seeded tie-heavy random graphs. The
// digests were recorded before the matcher was rewritten, so any change to
// its scan order, queue order, tie-breaks or blossom slot reuse that moves
// even one mate fails here, while the property tests (which compare only
// matching weights) would still pass.
//
// The sell_hist graph has one dual update per run (the final delta 1). The
// random graphs are there to reach the other dual updates: delta 2 (a free
// vertex next to an S-vertex), delta 3 (an edge between two S-blossoms),
// delta 4 (a T-blossom whose dual hits zero, expanded mid-stage), and
// end-of-stage expansion of S-blossoms.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/hex.h"
#include "common/random.h"
#include "core/eligible.h"
#include "crypto/pair_modulus.h"
#include "crypto/secret.h"
#include "crypto/sha256.h"
#include "datagen/real_world.h"
#include "matching/max_weight_matching.h"

namespace freqywm {
namespace {

constexpr int64_t kModulusBound = 131;

// Appends `mate` to `sha` as comma-separated decimals, one graph per line.
void HashMate(const std::vector<int>& mate, Sha256& sha) {
  for (int m : mate) sha.Update(std::to_string(m) + ",");
  sha.Update("\n");
}

std::string Hex(Sha256& sha) {
  const Sha256::Digest d = sha.Finish();
  return HexEncode(d.data(), d.size());
}

// The toy sell_hist graph: eligible pairs of a 1,500-token, 2M-sample
// taxi-like histogram at z=131, weighted T - remainder as SelectOptimal
// weights them.
TEST(MatchingIdentityTest, SellHistGraphMateIsUnchanged) {
  Rng rng(7);
  const Histogram hist = MakeChicagoTaxiLikeHistogram(rng, 1500, 2'000'000);
  PairModulus pm(GenerateSecret(256, 8), kModulusBound);
  const std::vector<EligiblePair> eligible =
      BuildEligiblePairs(hist, pm, EligibilityRule::kPaper, 2, 1);
  std::vector<WeightedEdge> edges;
  edges.reserve(eligible.size());
  for (const auto& p : eligible) {
    edges.push_back(WeightedEdge{static_cast<int>(p.rank_i),
                                 static_cast<int>(p.rank_j),
                                 kModulusBound -
                                     static_cast<int64_t>(p.remainder)});
  }
  const std::vector<int> mate =
      MaxWeightMatching(static_cast<int>(hist.num_tokens()), edges);

  int matched = 0;
  for (int m : mate) matched += m >= 0;
  Sha256 sha;
  HashMate(mate, sha);
  EXPECT_EQ(edges.size(), 3701u);
  EXPECT_EQ(matched, 814);
  EXPECT_EQ(MatchingWeight(mate, edges), 52909);
  EXPECT_EQ(Hex(sha),
            "06369c49c4ffde3d356a42dd3af37ef64999dbfe23843763c00d8f5aee07bc4a");
}

// 200 random graphs of 50-1,500 vertices and 1-4 edges per vertex
// (parallel edges allowed). Even trials draw weights from the narrow range
// [T-3, T], so nearly every comparison is a tie; odd trials draw from the
// wide range [1, T], which forces many dual updates per stage.
TEST(MatchingIdentityTest, TieHeavyRandomGraphMatesAreUnchanged) {
  Rng rng(20261019);
  Sha256 narrow;
  Sha256 wide;
  int64_t narrow_weight = 0;
  int64_t wide_weight = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 50 + static_cast<int>(rng.UniformU64(1451));
    const int m = n * (1 + static_cast<int>(rng.UniformU64(4)));
    const bool is_narrow = trial % 2 == 0;
    const int64_t low = is_narrow ? kModulusBound - 3 : 1;
    std::vector<WeightedEdge> edges;
    edges.reserve(m);
    while (static_cast<int>(edges.size()) < m) {
      const int u = static_cast<int>(rng.UniformU64(n));
      const int v = static_cast<int>(rng.UniformU64(n));
      if (u == v) continue;
      edges.push_back({u, v, rng.UniformInt(low, kModulusBound)});
    }
    const std::vector<int> mate = MaxWeightMatching(n, edges);
    HashMate(mate, is_narrow ? narrow : wide);
    (is_narrow ? narrow_weight : wide_weight) += MatchingWeight(mate, edges);
  }
  EXPECT_EQ(narrow_weight, 5053812);
  EXPECT_EQ(wide_weight, 3341070);
  EXPECT_EQ(Hex(narrow),
            "181943b319b9eff098777d7d4162baa1f553abb07c91550c2287085abc9e4087");
  EXPECT_EQ(Hex(wide),
            "720d4b2e054799b298e8de56407359769d6519f380c3501f6f5e44f513d668bc");
}

}  // namespace
}  // namespace freqywm
