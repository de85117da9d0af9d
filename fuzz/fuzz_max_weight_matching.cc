/// Fuzz harness for `MaxWeightMatching` (DESIGN.md §16): small, tie-heavy
/// graphs checked against an exhaustive matcher.
///
/// Input layout: byte 0 picks the vertex count (1-16); each following
/// 3-byte group is one edge `u, v, w` with `u` and `v` taken modulo the
/// vertex count and the weight the signed high nibble of `w` (-8..7), so
/// most weights tie and some are negative. At most 14 edges are read;
/// self-loops and parallel edges are kept.
///
/// Properties checked on every input:
///  * `mate` has one entry per vertex and is symmetric, with no vertex
///    matched to itself;
///  * every matched pair is joined by an edge that is not a self-loop,
///    and the heaviest such edge is not negative;
///  * `MatchingWeight(mate)` equals the optimum found by trying every
///    subset of the edges.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "matching/max_weight_matching.h"

namespace {

constexpr int kMaxVertices = 16;
constexpr size_t kMaxEdges = 14;

/// The heaviest matching over edges `idx..` given the vertices already
/// taken in `used`.
int64_t BruteForce(const std::vector<freqywm::WeightedEdge>& edges,
                   size_t idx, uint32_t used) {
  if (idx == edges.size()) return 0;
  int64_t best = BruteForce(edges, idx + 1, used);
  const freqywm::WeightedEdge& e = edges[idx];
  const uint32_t ends = (uint32_t{1} << e.u) | (uint32_t{1} << e.v);
  if (e.u != e.v && (used & ends) == 0) {
    const int64_t with = e.weight + BruteForce(edges, idx + 1, used | ends);
    if (with > best) best = with;
  }
  return best;
}

[[noreturn]] void Fail(const char* what, int vertex) {
  std::fprintf(stderr, "max_weight_matching: %s (vertex %d)\n", what, vertex);
  std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  const int n = 1 + data[0] % kMaxVertices;
  std::vector<freqywm::WeightedEdge> edges;
  for (size_t at = 1; at + 3 <= size && edges.size() < kMaxEdges; at += 3) {
    const int u = data[at] % n;
    const int v = data[at + 1] % n;
    const int64_t w = static_cast<int8_t>(data[at + 2]) >> 4;
    edges.push_back(freqywm::WeightedEdge{u, v, w});
  }

  const std::vector<int> mate = freqywm::MaxWeightMatching(n, edges);
  if (static_cast<int>(mate.size()) != n) Fail("mate has the wrong size", n);
  for (int v = 0; v < n; ++v) {
    const int m = mate[v];
    if (m == -1) continue;
    if (m < 0 || m >= n || m == v) Fail("mate out of range", v);
    if (mate[m] != v) Fail("mate is not symmetric", v);
    bool joined = false;
    int64_t heaviest = 0;
    for (const freqywm::WeightedEdge& e : edges) {
      if ((e.u == v && e.v == m) || (e.u == m && e.v == v)) {
        if (!joined || e.weight > heaviest) heaviest = e.weight;
        joined = true;
      }
    }
    if (!joined) Fail("matched pair without an edge", v);
    if (heaviest < 0) Fail("negative-weight edge matched", v);
  }
  if (freqywm::MatchingWeight(mate, edges) != BruteForce(edges, 0, 0)) {
    Fail("matching weight is not the optimum", -1);
  }
  return 0;
}
