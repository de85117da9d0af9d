// Identity gate for the blossom matcher: a digest of `mate` on a small
// sell_hist-like graph and on 200 seeded tie-heavy random graphs. The
// digests were recorded before the matcher was rewritten, so any change to
// its scan order, queue order, tie-breaks or blossom slot reuse that moves
// even one mate fails here, while the property tests (which compare only
// matching weights) would still pass.
//
// The sell_hist graphs have one dual update per run (the final delta 1).
// The random graphs are there to reach the other dual updates: delta 2 (a
// free vertex next to an S-vertex), delta 3 (an edge between two
// S-blossoms), delta 4 (a T-blossom whose dual hits zero, expanded
// mid-stage), and end-of-stage expansion of S-blossoms. The odd-cycle
// chains nest blossoms 50-100 deep, so they pin how a blossom takes over
// its largest child's leaves and hands them back on expansion.

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

// The eligible-pair graph of a taxi-like histogram at z=131, weighted
// T - remainder as SelectOptimal weights them.
std::vector<WeightedEdge> SellHistEdges(const Histogram& hist) {
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
  return edges;
}

// The toy sell_hist graph: a 1,500-token, 2M-sample histogram.
TEST(MatchingIdentityTest, SellHistGraphMateIsUnchanged) {
  Rng rng(7);
  const Histogram hist = MakeChicagoTaxiLikeHistogram(rng, 1500, 2'000'000);
  const std::vector<WeightedEdge> edges = SellHistEdges(hist);
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

// A marketbench-sized sell_hist graph: a 6,573-token, 20M-sample
// histogram, whose blossoms nest ~860 leaves deep.
TEST(MatchingIdentityTest, FullSellHistGraphMateIsUnchanged) {
  Rng rng(7);
  const Histogram hist = MakeChicagoTaxiLikeHistogram(rng, 6573, 20'000'000);
  const std::vector<WeightedEdge> edges = SellHistEdges(hist);
  const std::vector<int> mate =
      MaxWeightMatching(static_cast<int>(hist.num_tokens()), edges);

  int matched = 0;
  for (int m : mate) matched += m >= 0;
  Sha256 sha;
  HashMate(mate, sha);
  EXPECT_EQ(edges.size(), 26307u);
  EXPECT_EQ(matched, 2434);
  EXPECT_EQ(MatchingWeight(mate, edges), 158210);
  EXPECT_EQ(Hex(sha),
            "1563ac01c551843c40b4804ad694d999eea4f1e19783a6ede8e7f19ca0e829d6");
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

// Tight odd-cycle chains: vertex 0 and the pairs (2i+1, 2i+2), i < pairs.
// Each pair is joined by an edge of weight T and hangs off a vertex of the
// previous pair (vertex 0 for the first) by two more edges. With every
// link tight, the stage that roots a search at vertex 0 wraps each new
// blossom around the previous one, `pairs` deep. A link loosened by one
// (one in `cut_every`, when non-zero) makes the chain grow across a dual
// update, so an inner blossom keeps a non-zero dual. A hook is a vertex u
// on one chain vertex and a free vertex f on another and on u, at weights
// T-1 down to T-`loose`: it pulls the chain's blossom into later stages,
// where it is T-labelled, wrapped again and expanded.
std::vector<WeightedEdge> MakeTightOddCycleChain(Rng& rng, int cut_every,
                                                 int hooks, int64_t loose,
                                                 int* num_vertices) {
  const int pairs = 50 + static_cast<int>(rng.UniformU64(51));
  std::vector<WeightedEdge> edges;
  for (int i = 0; i < pairs; ++i) {
    edges.push_back({2 * i + 1, 2 * i + 2, kModulusBound});
  }
  for (int i = 0; i < pairs; ++i) {
    const int a = i == 0 ? 0 : 2 * i - 1 + static_cast<int>(rng.UniformU64(2));
    const bool cut = cut_every > 0 && rng.UniformU64(cut_every) == 0;
    const int64_t w = kModulusBound - (cut ? 1 : 0);
    edges.push_back({a, 2 * i + 1, w});
    edges.push_back({a, 2 * i + 2, w});
  }
  int n = 2 * pairs + 1;
  for (int h = 0; h < hooks; ++h) {
    const int u = n++;
    const int f = n++;
    const int x = static_cast<int>(rng.UniformU64(2 * pairs + 1));
    const int y = static_cast<int>(rng.UniformU64(2 * pairs + 1));
    edges.push_back({y, u, kModulusBound - rng.UniformInt(1, loose)});
    edges.push_back({f, x, kModulusBound - rng.UniformInt(1, loose)});
    edges.push_back({f, u, kModulusBound - rng.UniformInt(1, loose)});
  }
  *num_vertices = n;
  return edges;
}

// 60 seeded chains. Even trials keep the links tight (every fourth) or
// loosen one in eight and add 1-6 hooks at T-1..T-5: the chain nests 50+
// deep and its blossom comes back as the T-labelled largest child of a
// new one. Odd trials loosen one link in four and add 10-16 hooks at
// T-1..T-20, so delta-4 and end-of-stage expansions meet inner blossoms
// whose duals are not zero.
TEST(MatchingIdentityTest, NestedOddCycleChainMatesAreUnchanged) {
  Rng rng(20261020);
  Sha256 sha;
  int64_t weight = 0;
  int matched = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const bool deep = trial % 2 == 0;
    const int cut_every = deep ? (trial % 4 == 0 ? 0 : 8) : 4;
    const int hooks = deep ? 1 + static_cast<int>(rng.UniformU64(6))
                           : 10 + static_cast<int>(rng.UniformU64(7));
    const int64_t loose =
        deep ? 1 + static_cast<int64_t>(rng.UniformU64(5)) : 20;
    int n = 0;
    const std::vector<WeightedEdge> edges =
        MakeTightOddCycleChain(rng, cut_every, hooks, loose, &n);
    const std::vector<int> mate = MaxWeightMatching(n, edges);
    HashMate(mate, sha);
    weight += MatchingWeight(mate, edges);
    for (int m : mate) matched += m >= 0;
  }
  EXPECT_EQ(matched, 9882);
  EXPECT_EQ(weight, 643765);
  EXPECT_EQ(Hex(sha),
            "bf926d30ab9399df454328369de5065464910fc31a166b0fd3be15822e5da77a");
}

}  // namespace
}  // namespace freqywm
