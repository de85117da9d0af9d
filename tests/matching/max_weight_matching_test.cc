#include "matching/max_weight_matching.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <set>
#include <utility>
#include <vector>

#include "common/random.h"

namespace freqywm {
namespace {

// Test oracles for the blossom matcher.

/// Greedy matcher: repeatedly takes the heaviest edge whose endpoints are
/// both free. A 1/2-approximation of the maximum weight.
std::vector<int> GreedyMatching(int num_vertices,
                                const std::vector<WeightedEdge>& edges) {
  std::vector<size_t> order(edges.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (edges[a].weight != edges[b].weight) {
      return edges[a].weight > edges[b].weight;
    }
    return a < b;
  });
  std::vector<int> mate(num_vertices, -1);
  for (size_t idx : order) {
    const auto& e = edges[idx];
    if (e.u == e.v || e.weight < 0) continue;
    if (mate[e.u] == -1 && mate[e.v] == -1) {
      mate[e.u] = e.v;
      mate[e.v] = e.u;
    }
  }
  return mate;
}

void BruteForceRecurse(const std::vector<WeightedEdge>& edges, size_t idx,
                       std::vector<int>& mate, int64_t weight,
                       int64_t& best_weight, std::vector<int>& best_mate) {
  if (idx == edges.size()) {
    if (weight > best_weight) {
      best_weight = weight;
      best_mate = mate;
    }
    return;
  }
  // Skip edge idx.
  BruteForceRecurse(edges, idx + 1, mate, weight, best_weight, best_mate);
  // Take edge idx if both endpoints are free.
  const auto& e = edges[idx];
  if (e.u != e.v && mate[e.u] == -1 && mate[e.v] == -1) {
    mate[e.u] = e.v;
    mate[e.v] = e.u;
    BruteForceRecurse(edges, idx + 1, mate, weight + e.weight, best_weight,
                      best_mate);
    mate[e.u] = -1;
    mate[e.v] = -1;
  }
}

/// Exhaustive exact matcher for small graphs (<= ~20 edges practical).
std::vector<int> BruteForceMaxWeightMatching(
    int num_vertices, const std::vector<WeightedEdge>& edges) {
  std::vector<int> mate(num_vertices, -1);
  std::vector<int> best_mate = mate;
  int64_t best_weight = 0;
  BruteForceRecurse(edges, 0, mate, 0, best_weight, best_mate);
  return best_mate;
}

void ExpectValidMatching(const std::vector<int>& mate) {
  for (size_t v = 0; v < mate.size(); ++v) {
    if (mate[v] >= 0) {
      ASSERT_LT(static_cast<size_t>(mate[v]), mate.size());
      EXPECT_EQ(mate[static_cast<size_t>(mate[v])], static_cast<int>(v))
          << "matching is not symmetric at vertex " << v;
      EXPECT_NE(mate[v], static_cast<int>(v));
    }
  }
}

TEST(MaxWeightMatchingTest, EmptyGraph) {
  EXPECT_TRUE(MaxWeightMatching(0, {}).empty());
  auto mate = MaxWeightMatching(3, {});
  EXPECT_EQ(mate, (std::vector<int>{-1, -1, -1}));
}

TEST(MaxWeightMatchingTest, SingleEdge) {
  auto mate = MaxWeightMatching(2, {{0, 1, 5}});
  EXPECT_EQ(mate[0], 1);
  EXPECT_EQ(mate[1], 0);
}

TEST(MaxWeightMatchingTest, PathPicksHeavierEnd) {
  // Path 0-1-2: edges (0,1,w=2), (1,2,w=3). Optimal takes (1,2).
  auto mate = MaxWeightMatching(3, {{0, 1, 2}, {1, 2, 3}});
  EXPECT_EQ(mate[0], -1);
  EXPECT_EQ(mate[1], 2);
  EXPECT_EQ(mate[2], 1);
}

TEST(MaxWeightMatchingTest, PathPrefersTwoEdgesOverOneHeavy) {
  // Path 0-1-2-3 with middle edge heavy but outer pair heavier combined.
  auto mate = MaxWeightMatching(4, {{0, 1, 4}, {1, 2, 5}, {2, 3, 4}});
  EXPECT_EQ(mate[0], 1);
  EXPECT_EQ(mate[2], 3);
}

TEST(MaxWeightMatchingTest, MiddleEdgeWinsWhenHeavyEnough) {
  auto mate = MaxWeightMatching(4, {{0, 1, 4}, {1, 2, 20}, {2, 3, 4}});
  EXPECT_EQ(mate[1], 2);
  EXPECT_EQ(mate[0], -1);
  EXPECT_EQ(mate[3], -1);
}

TEST(MaxWeightMatchingTest, TriangleBlossomCase) {
  // An odd cycle: at most one edge can be matched; must be the heaviest.
  auto mate = MaxWeightMatching(3, {{0, 1, 6}, {1, 2, 5}, {0, 2, 4}});
  EXPECT_EQ(mate[0], 1);
  EXPECT_EQ(mate[1], 0);
  EXPECT_EQ(mate[2], -1);
}

TEST(MaxWeightMatchingTest, PentagonWithSpokes) {
  // Classic blossom stress: 5-cycle plus pendant vertices. From the
  // van Rantwijk test suite (test24).
  std::vector<WeightedEdge> edges = {
      {1, 2, 19}, {2, 3, 20}, {1, 8, 8}, {3, 9, 8},
      {4, 5, 25}, {5, 6, 18}, {6, 7, 13}, {7, 8, 7},
      {8, 9, 7},  {4, 9, 7},  {3, 4, 25}};
  auto mate = MaxWeightMatching(10, edges);
  ExpectValidMatching(mate);
  EXPECT_EQ(MatchingWeight(mate, edges),
            MatchingWeight(BruteForceMaxWeightMatching(10, edges), edges));
}

TEST(MaxWeightMatchingTest, NegativeWeightEdgesAvoided) {
  auto mate = MaxWeightMatching(4, {{0, 1, -5}, {2, 3, 7}});
  EXPECT_EQ(mate[0], -1);
  EXPECT_EQ(mate[1], -1);
  EXPECT_EQ(mate[2], 3);
}

TEST(MaxWeightMatchingTest, SelfLoopsIgnored) {
  auto mate = MaxWeightMatching(2, {{0, 0, 100}, {0, 1, 1}});
  EXPECT_EQ(mate[0], 1);
}

TEST(MaxWeightMatchingTest, ZeroWeightEdgesNotRequired) {
  auto mate = MaxWeightMatching(2, {{0, 1, 0}});
  // A zero-weight edge adds nothing; either answer is optimal, but the
  // matching must be valid.
  ExpectValidMatching(mate);
}

TEST(GreedyMatchingTest, TakesHeaviestFirst) {
  auto mate = GreedyMatching(3, {{0, 1, 2}, {1, 2, 3}});
  EXPECT_EQ(mate[1], 2);
  EXPECT_EQ(mate[0], -1);
}

TEST(GreedyMatchingTest, IsHalfApproximation) {
  // Path where greedy is suboptimal: greedy picks the middle edge (5),
  // optimal picks the two outer edges (4+4=8). 5 >= 8/2 holds.
  std::vector<WeightedEdge> edges{{0, 1, 4}, {1, 2, 5}, {2, 3, 4}};
  auto greedy = GreedyMatching(4, edges);
  auto optimal = MaxWeightMatching(4, edges);
  EXPECT_GE(2 * MatchingWeight(greedy, edges),
            MatchingWeight(optimal, edges));
}

TEST(BruteForceTest, KnownOptimum) {
  std::vector<WeightedEdge> edges{{0, 1, 4}, {1, 2, 5}, {2, 3, 4}};
  auto mate = BruteForceMaxWeightMatching(4, edges);
  EXPECT_EQ(MatchingWeight(mate, edges), 8);
}

// ---------------------------------------------------------------------------
// Property tests: blossom == brute force on random graphs. This is the
// correctness certificate for the optimal pair-selection reduction.
// ---------------------------------------------------------------------------

struct RandomGraphCase {
  int vertices;
  int edges;
  int64_t max_weight;
};

// Prints the case as its test-name suffix, e.g. "v4_e5_w10".
void PrintTo(const RandomGraphCase& c, std::ostream* os) {
  *os << 'v' << c.vertices << "_e" << c.edges << "_w" << c.max_weight;
}

class MatchingPropertyTest
    : public ::testing::TestWithParam<RandomGraphCase> {};

TEST_P(MatchingPropertyTest, BlossomMatchesBruteForceWeight) {
  const RandomGraphCase& param = GetParam();
  Rng rng(static_cast<uint64_t>(param.vertices * 1000003 + param.edges));
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<WeightedEdge> edges;
    std::set<std::pair<int, int>> seen;
    for (int e = 0; e < param.edges; ++e) {
      int u = static_cast<int>(rng.UniformU64(param.vertices));
      int v = static_cast<int>(rng.UniformU64(param.vertices));
      if (u == v) continue;
      if (u > v) std::swap(u, v);
      if (!seen.insert({u, v}).second) continue;
      edges.push_back(
          {u, v, rng.UniformInt(1, param.max_weight)});
    }
    auto blossom = MaxWeightMatching(param.vertices, edges);
    ExpectValidMatching(blossom);
    auto brute = BruteForceMaxWeightMatching(param.vertices, edges);
    EXPECT_EQ(MatchingWeight(blossom, edges), MatchingWeight(brute, edges))
        << "trial " << trial << " vertices=" << param.vertices
        << " edges=" << edges.size();
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, MatchingPropertyTest,
    ::testing::Values(RandomGraphCase{4, 5, 10}, RandomGraphCase{5, 8, 7},
                      RandomGraphCase{6, 9, 100}, RandomGraphCase{7, 12, 3},
                      RandomGraphCase{8, 14, 50}, RandomGraphCase{9, 16, 5},
                      RandomGraphCase{10, 18, 1000},
                      RandomGraphCase{6, 15, 2},  // dense, many ties
                      RandomGraphCase{12, 14, 20}),
    ::testing::PrintToStringParamName());

TEST(MatchingPropertyTest, GreedyNeverBeatsBlossom) {
  Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    int n = 20;
    std::vector<WeightedEdge> edges;
    std::set<std::pair<int, int>> seen;
    for (int e = 0; e < 60; ++e) {
      int u = static_cast<int>(rng.UniformU64(n));
      int v = static_cast<int>(rng.UniformU64(n));
      if (u == v) continue;
      if (u > v) std::swap(u, v);
      if (!seen.insert({u, v}).second) continue;
      edges.push_back({u, v, rng.UniformInt(1, 500)});
    }
    auto blossom = MaxWeightMatching(n, edges);
    auto greedy = GreedyMatching(n, edges);
    ExpectValidMatching(blossom);
    ExpectValidMatching(greedy);
    EXPECT_GE(MatchingWeight(blossom, edges), MatchingWeight(greedy, edges));
    EXPECT_GE(2 * MatchingWeight(greedy, edges),
              MatchingWeight(blossom, edges));
  }
}

// Regression: MatchingWeight used to skip edges given as u > v.
TEST(MatchingWeightTest, CountsReversedEdges) {
  std::vector<WeightedEdge> forward{{0, 1, 4}, {2, 3, 7}, {1, 2, 9}};
  std::vector<WeightedEdge> reversed{{1, 0, 4}, {3, 2, 7}, {2, 1, 9}};
  const std::vector<int> mate{1, 0, 3, 2};
  EXPECT_EQ(MatchingWeight(mate, forward), 11);
  EXPECT_EQ(MatchingWeight(mate, reversed), 11);
  EXPECT_EQ(MatchingWeight(MaxWeightMatching(4, reversed), reversed), 11);
}

TEST(MatchingWeightTest, CountsAPairGivenInBothOrientationsOnce) {
  std::vector<WeightedEdge> edges{{0, 1, 5}, {1, 0, 5}, {2, 3, 1}};
  EXPECT_EQ(MatchingWeight({1, 0, 3, 2}, edges), 6);
}

TEST(MatchingWeightTest, ReversedRandomGraphsMatchBruteForce) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 8;
    std::vector<WeightedEdge> edges;
    std::set<std::pair<int, int>> seen;
    for (int e = 0; e < 12; ++e) {
      int u = static_cast<int>(rng.UniformU64(n));
      int v = static_cast<int>(rng.UniformU64(n));
      if (u == v || !seen.insert({std::min(u, v), std::max(u, v)}).second) {
        continue;
      }
      edges.push_back({u, v, rng.UniformInt(1, 40)});
    }
    auto brute = BruteForceMaxWeightMatching(n, edges);
    int64_t expected = 0;
    for (const auto& e : edges) {
      if (brute[e.u] == e.v) expected += e.weight;
    }
    EXPECT_EQ(MatchingWeight(brute, edges), expected) << "trial " << trial;
    EXPECT_EQ(MatchingWeight(MaxWeightMatching(n, edges), edges), expected)
        << "trial " << trial;
  }
}

// The blossom runs over the active vertices only. Interleaving isolated
// vertices among active ones must give exactly the mate of the graph
// renumbered by hand, mapped back.
TEST(ActiveVertexTest, IsolatedVerticesDoNotChangeMate) {
  Rng rng(31);
  for (int trial = 0; trial < 50; ++trial) {
    const int active = 12;
    std::vector<WeightedEdge> compact;
    for (int e = 0; e < 24; ++e) {
      int u = static_cast<int>(rng.UniformU64(active));
      int v = static_cast<int>(rng.UniformU64(active));
      if (u != v) compact.push_back({u, v, rng.UniformInt(1, 30)});
    }
    // Spread the active vertices over a larger range, with 0-3 isolated
    // vertices before each one.
    std::vector<int> vertex_of(active);
    int next = 0;
    for (int c = 0; c < active; ++c) {
      next += static_cast<int>(rng.UniformU64(4));
      vertex_of[c] = next++;
    }
    const int n = next + static_cast<int>(rng.UniformU64(4));
    std::vector<WeightedEdge> spread;
    for (const auto& e : compact) {
      spread.push_back({vertex_of[e.u], vertex_of[e.v], e.weight});
    }
    // Self-loops on isolated vertices must not make them active.
    spread.push_back({n - 1, n - 1, 50});

    const std::vector<int> compact_mate = MaxWeightMatching(active, compact);
    std::vector<int> expected(n, -1);
    for (int c = 0; c < active; ++c) {
      if (compact_mate[c] >= 0) {
        expected[vertex_of[c]] = vertex_of[compact_mate[c]];
      }
    }
    EXPECT_EQ(MaxWeightMatching(n, spread), expected) << "trial " << trial;
  }
}

TEST(ActiveVertexTest, SparseGraphsOnManyVerticesMatchBruteForce) {
  Rng rng(57);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 2000;
    std::vector<WeightedEdge> edges;
    std::set<std::pair<int, int>> seen;
    // ~8 active vertices drawn from 2,000.
    std::vector<int> pool;
    for (int k = 0; k < 8; ++k) {
      pool.push_back(static_cast<int>(rng.UniformU64(n)));
    }
    for (int e = 0; e < 14; ++e) {
      int u = pool[rng.UniformU64(pool.size())];
      int v = pool[rng.UniformU64(pool.size())];
      if (u == v || !seen.insert({std::min(u, v), std::max(u, v)}).second) {
        continue;
      }
      edges.push_back({u, v, rng.UniformInt(1, 60)});
    }
    auto blossom = MaxWeightMatching(n, edges);
    ExpectValidMatching(blossom);
    EXPECT_EQ(MatchingWeight(blossom, edges),
              MatchingWeight(BruteForceMaxWeightMatching(n, edges), edges))
        << "trial " << trial;
  }
}

TEST(ActiveVertexTest, NoActiveVertexLeavesAllSingle) {
  EXPECT_EQ(MaxWeightMatching(3, {{1, 1, 9}}), std::vector<int>(3, -1));
}

TEST(MatchingScaleTest, LargeSparseGraphRuns) {
  // Not a correctness oracle (brute force cannot reach this size) but a
  // guard that the implementation handles FreqyWM-scale graphs.
  Rng rng(99);
  const int n = 500;
  std::vector<WeightedEdge> edges;
  std::set<std::pair<int, int>> seen;
  while (edges.size() < 2000) {
    int u = static_cast<int>(rng.UniformU64(n));
    int v = static_cast<int>(rng.UniformU64(n));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (!seen.insert({u, v}).second) continue;
    edges.push_back({u, v, rng.UniformInt(1, 1030)});
  }
  auto mate = MaxWeightMatching(n, edges);
  ExpectValidMatching(mate);
  EXPECT_GT(MatchingWeight(mate, edges), 0);
}

}  // namespace
}  // namespace freqywm
