// Cross-cutting property sweeps: invariants that must hold for every
// parameter combination, exercised with TEST_P grids.

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>

#include "core/detect.h"
#include "core/watermark.h"
#include "crypto/pair_modulus.h"
#include "datagen/power_law.h"
#include "matching/max_weight_matching.h"
#include "stats/similarity.h"

namespace freqywm {
namespace {

// ---------------------------------------------------------------------------
// Matching: structured graphs with known optima.
// ---------------------------------------------------------------------------

TEST(StructuredGraphTest, EvenPathTakesAlternateEdges) {
  // Path of 10 vertices, unit weights: optimal matches 5 edges.
  std::vector<WeightedEdge> edges;
  for (int i = 0; i + 1 < 10; ++i) edges.push_back({i, i + 1, 1});
  auto mate = MaxWeightMatching(10, edges);
  EXPECT_EQ(MatchingWeight(mate, edges), 5);
}

TEST(StructuredGraphTest, OddCycleMatchesFloorHalf) {
  // 7-cycle, unit weights: optimal matches 3 edges.
  std::vector<WeightedEdge> edges;
  for (int i = 0; i < 7; ++i) edges.push_back({i, (i + 1) % 7, 1});
  auto mate = MaxWeightMatching(7, edges);
  EXPECT_EQ(MatchingWeight(mate, edges), 3);
}

TEST(StructuredGraphTest, StarMatchesExactlyOneEdge) {
  std::vector<WeightedEdge> edges;
  for (int leaf = 1; leaf <= 8; ++leaf) edges.push_back({0, leaf, leaf});
  auto mate = MaxWeightMatching(9, edges);
  EXPECT_EQ(MatchingWeight(mate, edges), 8);  // heaviest spoke
  EXPECT_EQ(mate[0], 8);
}

TEST(StructuredGraphTest, CompleteGraphPerfectMatching) {
  // K6 with unit weights: perfect matching of 3 edges.
  std::vector<WeightedEdge> edges;
  for (int i = 0; i < 6; ++i) {
    for (int j = i + 1; j < 6; ++j) edges.push_back({i, j, 1});
  }
  auto mate = MaxWeightMatching(6, edges);
  EXPECT_EQ(MatchingWeight(mate, edges), 3);
  for (int v = 0; v < 6; ++v) EXPECT_NE(mate[v], -1);
}

TEST(StructuredGraphTest, TwoTrianglesBridged) {
  // Two triangles joined by a heavy bridge: bridge + one edge per triangle.
  std::vector<WeightedEdge> edges = {{0, 1, 2}, {1, 2, 2}, {0, 2, 2},
                                     {3, 4, 2}, {4, 5, 2}, {3, 5, 2},
                                     {2, 3, 10}};
  auto mate = MaxWeightMatching(6, edges);
  EXPECT_EQ(MatchingWeight(mate, edges), 14);  // 10 + 2 + 2
  EXPECT_EQ(mate[2], 3);
}

// ---------------------------------------------------------------------------
// Generation invariants over a (z, strategy, alpha) grid.
// ---------------------------------------------------------------------------

struct GridCase {
  uint64_t z;
  SelectionStrategy strategy;
  double alpha;
};

// Prints the case as its test-name suffix, e.g. "z131_greedy_alpha0p5".
void PrintTo(const GridCase& c, std::ostream* os) {
  const char* const kStrategies[] = {"optimal", "greedy", "random"};
  const char* strategy = kStrategies[static_cast<int>(c.strategy)];
  std::string alpha = std::to_string(c.alpha);
  alpha.erase(alpha.find_last_not_of('0') + 1);
  std::replace(alpha.begin(), alpha.end(), '.', 'p');
  *os << 'z' << c.z << '_' << strategy << "_alpha" << alpha;
}

class GenerationInvariantTest : public ::testing::TestWithParam<GridCase> {};

TEST_P(GenerationInvariantTest, CoreInvariantsHold) {
  const GridCase& param = GetParam();
  Rng rng(static_cast<uint64_t>(param.alpha * 100) + param.z);
  PowerLawSpec spec;
  spec.num_tokens = 120;
  spec.sample_size = 120000;
  spec.alpha = param.alpha;
  Histogram original = GeneratePowerLawHistogram(spec, rng);

  GenerateOptions o;
  o.budget_percent = 2.0;
  o.modulus_bound = param.z;
  o.strategy = param.strategy;
  o.seed = 99;
  auto r = WatermarkGenerator(o).GenerateFromHistogram(original);
  if (!r.ok()) {
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    return;
  }
  const auto& result = r.value();

  // (1) Ranking preserved; (2) similarity within budget; (3) every stored
  // pair satisfies the embedding rule with modulus in [min, z); (4) token
  // universe unchanged; (5) detection at t=0 verifies everything.
  EXPECT_TRUE(result.watermarked.IsSortedDescending());
  EXPECT_GE(result.report.similarity_percent, 98.0);
  EXPECT_EQ(result.watermarked.num_tokens(), original.num_tokens());

  PairModulus pm(result.report.secrets.r, result.report.secrets.z);
  std::set<Token> used;
  for (const auto& pair : result.report.secrets.pairs) {
    uint64_t s = pm.Compute(pair.token_i, pair.token_j);
    EXPECT_GE(s, 2u);
    EXPECT_LT(s, param.z);
    auto fi = result.watermarked.CountOf(pair.token_i);
    auto fj = result.watermarked.CountOf(pair.token_j);
    ASSERT_TRUE(fi && fj);
    EXPECT_EQ((*fi - *fj) % s, 0u);
    // Token-disjointness of Lwm.
    EXPECT_TRUE(used.insert(pair.token_i).second);
    EXPECT_TRUE(used.insert(pair.token_j).second);
  }

  DetectOptions d;
  d.pair_threshold = 0;
  d.min_pairs = result.report.secrets.pairs.size();
  EXPECT_TRUE(
      DetectWatermark(result.watermarked, result.report.secrets, d)
          .accepted);
}

INSTANTIATE_TEST_SUITE_P(
    ParameterGrid, GenerationInvariantTest,
    ::testing::Values(
        GridCase{10, SelectionStrategy::kOptimal, 0.7},
        GridCase{131, SelectionStrategy::kOptimal, 0.5},
        GridCase{131, SelectionStrategy::kGreedy, 0.5},
        GridCase{131, SelectionStrategy::kRandom, 0.5},
        GridCase{1031, SelectionStrategy::kOptimal, 0.7},
        GridCase{1031, SelectionStrategy::kGreedy, 0.9},
        GridCase{2063, SelectionStrategy::kGreedy, 0.7},
        GridCase{67, SelectionStrategy::kRandom, 0.9}),
    ::testing::PrintToStringParamName());

// ---------------------------------------------------------------------------
// Detection threshold monotonicity: verified pairs never shrink as t grows
// or as the suspect is perturbed less.
// ---------------------------------------------------------------------------

class DetectionMonotonicityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DetectionMonotonicityTest, VerifiedCountMonotoneInT) {
  Rng rng(GetParam());
  PowerLawSpec spec;
  spec.num_tokens = 150;
  spec.sample_size = 150000;
  spec.alpha = 0.6;
  Histogram original = GeneratePowerLawHistogram(spec, rng);
  GenerateOptions o;
  o.budget_percent = 2.0;
  o.modulus_bound = 131;
  o.seed = GetParam();
  auto r = WatermarkGenerator(o).GenerateFromHistogram(original);
  ASSERT_TRUE(r.ok());

  // Perturb mildly so intermediate t values are informative.
  Histogram noisy = r.value().watermarked;
  Rng noise(GetParam() + 1);
  for (const auto& e : r.value().watermarked.entries()) {
    if (noise.Bernoulli(0.3)) {
      (void)noisy.AddDelta(e.token, noise.UniformInt(-2, 2));
    }
  }

  size_t prev = 0;
  for (uint64_t t = 0; t <= 12; ++t) {
    DetectOptions d;
    d.pair_threshold = t;
    d.min_pairs = 1;
    DetectResult dr = DetectWatermark(noisy, r.value().report.secrets, d);
    EXPECT_GE(dr.pairs_verified, prev) << "t=" << t;
    prev = dr.pairs_verified;
  }
  // Symmetric detection dominates one-sided at equal t.
  for (uint64_t t : {0ull, 2ull, 5ull}) {
    DetectOptions one;
    one.pair_threshold = t;
    one.min_pairs = 1;
    DetectOptions sym = one;
    sym.symmetric_residue = true;
    EXPECT_GE(
        DetectWatermark(noisy, r.value().report.secrets, sym).pairs_verified,
        DetectWatermark(noisy, r.value().report.secrets, one).pairs_verified);
  }
}

// Named after the seed itself, so the ids read `.../11` whether or not a
// test runner substitutes parameter values for indices.
INSTANTIATE_TEST_SUITE_P(
    Seeds, DetectionMonotonicityTest, ::testing::Values(11, 22, 33, 44),
    [](const ::testing::TestParamInfo<uint64_t>& info) {
      return std::to_string(info.param);
    });

// ---------------------------------------------------------------------------
// Serialization robustness: random mutations of a valid secrets file must
// either parse to a valid object or fail cleanly — never crash.
// ---------------------------------------------------------------------------

TEST(SerializationFuzzTest, MutatedSecretsNeverCrash) {
  WatermarkSecrets s;
  s.r = GenerateSecret(256, 1);
  s.z = 131;
  for (int i = 0; i < 20; ++i) {
    s.pairs.push_back(SecretPair{"token_a_" + std::to_string(i),
                                 "token_b_" + std::to_string(i)});
  }
  const std::string good = s.Serialize();
  ASSERT_TRUE(WatermarkSecrets::Deserialize(good).ok());

  Rng rng(123);
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = good;
    int mutations = 1 + static_cast<int>(rng.UniformU64(4));
    for (int m = 0; m < mutations; ++m) {
      size_t pos = static_cast<size_t>(rng.UniformU64(mutated.size()));
      switch (rng.UniformU64(3)) {
        case 0:
          mutated[pos] = static_cast<char>(rng.UniformU64(256));
          break;
        case 1:
          mutated.erase(pos, 1 + rng.UniformU64(5));
          break;
        default:
          mutated.insert(pos, std::string(1 + rng.UniformU64(3),
                                          static_cast<char>(
                                              'a' + rng.UniformU64(26))));
          break;
      }
      if (mutated.empty()) mutated = "x";
    }
    auto parsed = WatermarkSecrets::Deserialize(mutated);  // must not crash
    if (parsed.ok()) {
      EXPECT_GE(parsed.value().z, 2u);  // any accepted parse is well-formed
    }
  }
}

}  // namespace
}  // namespace freqywm
