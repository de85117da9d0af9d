#ifndef FREQYWM_MATCHING_MAX_WEIGHT_MATCHING_H_
#define FREQYWM_MATCHING_MAX_WEIGHT_MATCHING_H_

#include <cstdint>
#include <vector>

namespace freqywm {

/// An undirected weighted edge between vertex indices `u` and `v`.
struct WeightedEdge {
  int u = 0;
  int v = 0;
  int64_t weight = 0;

  friend bool operator==(const WeightedEdge& a, const WeightedEdge& b) {
    return a.u == b.u && a.v == b.v && a.weight == b.weight;
  }
};

/// Maximum weight matching on a general graph (Galil's blossom algorithm,
/// O(V^3) formulation after van Rantwijk). This is the exact solver behind
/// FreqyWM's *optimal* pair selection (paper §III-B2).
///
/// Returns `mate` with `mate[v]` = matched partner of `v`, or -1 if `v` is
/// single. Self-loops are ignored; negative-weight edges are never matched.
/// The blossom runs only over vertices that have an edge, so the cost is
/// cubic in those, not in `num_vertices`.
///
/// Correctness is established three ways in the test suite: against an
/// exhaustive brute-force matcher on random graphs (property tests), by a
/// digest of `mate` on pinned graphs (identity tests), and by verifying LP
/// dual feasibility + complementary slackness internally when assertions
/// are enabled.
std::vector<int> MaxWeightMatching(int num_vertices,
                                   const std::vector<WeightedEdge>& edges);

/// Sum of weights of matched edges for a `mate` array such as
/// `MaxWeightMatching` returns. Edges may be given as `u < v` or `u > v`;
/// each matched pair counts once, with the heaviest edge joining it.
int64_t MatchingWeight(const std::vector<int>& mate,
                       const std::vector<WeightedEdge>& edges);

}  // namespace freqywm

#endif  // FREQYWM_MATCHING_MAX_WEIGHT_MATCHING_H_
