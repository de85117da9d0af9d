#ifndef FREQYWM_CORE_ELIGIBLE_H_
#define FREQYWM_CORE_ELIGIBLE_H_

#include <cstdint>
#include <vector>

#include "core/boundaries.h"
#include "core/options.h"
#include "crypto/pair_modulus.h"
#include "data/histogram.h"
#include "exec/exec_context.h"

namespace freqywm {

/// One candidate watermarking pair (an element of `Le`, §III-B1), with the
/// exact frequency changes that would embed it.
///
/// `rank_i < rank_j`, so token i is the more frequent one and
/// `f_i - f_j >= 0`. The embedding rule requires `(f_i' - f_j') mod s == 0`;
/// with remainder `rm = (f_i - f_j) mod s` the cheapest fix is:
///   * shrink the difference by `rm` when `rm <= s/2`
///     (f_i -= ceil(rm/2), f_j += floor(rm/2)), or
///   * grow it by `s - rm` otherwise
///     (f_i += ceil((s-rm)/2), f_j -= floor((s-rm)/2)) —
/// the paper's wrap-around observation that caps per-pair churn at s/2.
struct EligiblePair {
  size_t rank_i = 0;
  size_t rank_j = 0;
  /// Keyed per-pair modulus (>= 2 for eligible pairs).
  uint64_t s = 0;
  /// (f_i - f_j) mod s at generation time.
  uint64_t remainder = 0;
  /// Exact signed frequency deltas that zero the residue.
  int64_t delta_i = 0;
  int64_t delta_j = 0;
  /// Total token-instance churn |delta_i| + |delta_j| = min(rm, s - rm).
  uint64_t cost = 0;

  /// Field-wise equality — the golden identity tests compare whole pair
  /// lists between the reference, pruned-serial and sharded-parallel scans.
  friend bool operator==(const EligiblePair& a, const EligiblePair& b) {
    return a.rank_i == b.rank_i && a.rank_j == b.rank_j && a.s == b.s &&
           a.remainder == b.remainder && a.delta_i == b.delta_i &&
           a.delta_j == b.delta_j && a.cost == b.cost;
  }
  friend bool operator!=(const EligiblePair& a, const EligiblePair& b) {
    return !(a == b);
  }
};

/// Computes the deltas/cost fields for a pair given its difference and
/// modulus. Exposed separately because detection-side analysis and tests
/// reuse the rule.
EligiblePair MakePairPlan(size_t rank_i, size_t rank_j, uint64_t freq_diff,
                          uint64_t s);

/// Builds the eligible pair list `Le` for a sorted histogram.
///
/// Scans all token pairs, keeping a pair when `s_ij >= min_modulus` (the
/// paper's rule is min_modulus = 2) and the boundary test of `rule`
/// passes. The returned list is ordered by (rank_i, rank_j), which makes
/// downstream selection deterministic.
///
/// This is the Gen hot path (O(n^2) keyed-hash evaluations; Table II's
/// generation cost), so the scan is engineered (DESIGN.md §8):
///  * one inner digest `H(R || tk_j)` per token and one prepared outer
///    hash per row `i` — each pair costs one or two bare SHA-256
///    compressions of a pre-padded final block (`PairModulus::OuterState`);
///  * pairs that cannot pass the filters for ANY modulus value are pruned
///    before hashing: tokens whose boundary slack can never admit
///    `s >= min_modulus` or afford `cost >= min_pair_cost` (kPaper rule),
///    and the leading run of `j` whose `freq_diff = f_i - f_j` is below
///    `min_pair_cost` (cost <= freq_diff always);
///  * when `exec` carries a thread pool, the outer `i`-loop is sharded
///    into contiguous row ranges with per-shard output vectors
///    concatenated in `i`-order, so the result is byte-identical to the
///    serial scan at any thread count.
///
/// `BuildEligiblePairsReference` below is the unpruned one-hash-per-pair
/// reference; `tests/exec/parallel_eligible_test.cc` enforces identity.
///
/// Precondition: `hist.IsSortedDescending()` (validated with
/// `InvalidArgument` at the `WatermarkGenerator` entry points; asserted
/// here).
std::vector<EligiblePair> BuildEligiblePairs(const Histogram& hist,
                                             const PairModulus& modulus,
                                             EligibilityRule rule,
                                             uint64_t min_modulus = 2,
                                             uint64_t min_pair_cost = 0,
                                             const ExecContext& exec = {});

/// The pre-optimization scan (PR 2 state): full outer re-hash per pair, no
/// pruning, single-threaded. Kept as the identity oracle for the golden
/// tests and as the "before" side of the perf counters in
/// `bench_micro_corelib`; output is byte-identical to `BuildEligiblePairs`.
std::vector<EligiblePair> BuildEligiblePairsReference(
    const Histogram& hist, const PairModulus& modulus, EligibilityRule rule,
    uint64_t min_modulus = 2, uint64_t min_pair_cost = 0);

}  // namespace freqywm

#endif  // FREQYWM_CORE_ELIGIBLE_H_
