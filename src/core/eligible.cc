#include "core/eligible.h"

#include <algorithm>
#include <cassert>

#include "exec/thread_pool.h"

namespace freqywm {
namespace {

/// Half of `gap`, rounded down, with unbounded passed through.
uint64_t HalfGap(uint64_t gap) {
  if (gap == TokenBoundary::kUnbounded) return gap;
  return gap / 2;
}

/// True when a signed delta fits within the available slack.
bool DeltaFits(int64_t delta, uint64_t up_slack, uint64_t down_slack) {
  if (delta >= 0) {
    return up_slack == TokenBoundary::kUnbounded ||
           static_cast<uint64_t>(delta) <= up_slack;
  }
  return static_cast<uint64_t>(-delta) <= down_slack;
}

/// Immutable per-scan state shared by every row of the pruned scan; row
/// scans only read it, so shards can run it concurrently.
struct PairScan {
  const std::vector<HistogramEntry>& entries;
  const std::vector<TokenBoundary>& bounds;
  const PairModulus& modulus;
  EligibilityRule rule;
  uint64_t min_modulus;
  uint64_t min_pair_cost;
  /// Ascending ranks that survive per-token pruning (every rank for the
  /// strict rule). Both loop roles draw from this list: a pruned token can
  /// appear in no pair at all.
  const std::vector<uint32_t>& candidates;
  /// Inner digests H(R || tk_j), indexed by position in `candidates`.
  const PairModulus::InnerColumns& inner;

  /// Appends the eligible pairs of the row at candidate position `r` to
  /// `out` in ascending-j order.
  void ScanRow(size_t r, std::vector<EligiblePair>* out) const;
};

void PairScan::ScanRow(size_t r, std::vector<EligiblePair>* out) const {
  const size_t n = entries.size();
  const uint32_t i = candidates[r];
  const uint64_t fi = entries[i].count;
  // kUnbounded is the max uint64, so min() picks the finite bound.
  const uint64_t slack_i = std::min(bounds[i].upper, bounds[i].lower);

  size_t begin = r + 1;
  if (min_pair_cost > 0) {
    // cost <= freq_diff always, and counts are non-increasing in rank, so
    // the leading run of j with `f_i - f_j < min_pair_cost` (ties first)
    // can never pass the cost filter: skip it without hashing.
    if (fi < min_pair_cost) return;
    const uint64_t max_fj = fi - min_pair_cost;
    begin = static_cast<size_t>(
        std::partition_point(candidates.begin() + begin, candidates.end(),
                             [&](uint32_t j) {
                               return entries[j].count > max_fj;
                             }) -
        candidates.begin());
  }
  if (begin == candidates.size()) return;

  // One prepared outer hash per row; each batch hashes up to 16 columns
  // at once, and the filters below take its moduli in ascending-j order.
  const PairModulus::OuterState outer = modulus.OuterFor(entries[i].token);
  constexpr size_t kBatch = PairModulus::InnerColumns::kBatch;
  uint64_t moduli[kBatch];
  for (size_t p = begin; p < candidates.size(); p += kBatch) {
    const size_t count = std::min(kBatch, candidates.size() - p);
    outer.ReduceBatch(inner, p, count, moduli);
    for (size_t l = 0; l < count; ++l) {
      const uint32_t j = candidates[p + l];
      const uint64_t s = moduli[l];
      if (s < min_modulus) continue;  // s < 2 undefined; below the floor

      if (rule == EligibilityRule::kPaper) {
        // All four boundaries must be at least ceil(s/2). Tested before the
        // plan: fewer than 1 % of hashed pairs pass it.
        const uint64_t slack =
            std::min({slack_i, bounds[j].upper, bounds[j].lower});
        if (slack < (s + 1) / 2) continue;
      }

      EligiblePair plan = MakePairPlan(i, j, fi - entries[j].count, s);
      if (plan.cost < min_pair_cost) continue;  // carries no evidence

      if (rule == EligibilityRule::kStrictHalfGap) {
        // Strict rule: the exact deltas must fit within HALF of each
        // shared gap (full slack at the unshared extremes), which provably
        // keeps the ranking for any token-disjoint set of pairs.
        uint64_t up_i = (i == 0) ? TokenBoundary::kUnbounded
                                 : HalfGap(bounds[i].upper);
        uint64_t down_i = (i + 1 == n) ? bounds[i].lower
                                       : HalfGap(bounds[i].lower);
        uint64_t up_j = (j == 0) ? TokenBoundary::kUnbounded
                                 : HalfGap(bounds[j].upper);
        uint64_t down_j = (j + 1 == n) ? bounds[j].lower
                                       : HalfGap(bounds[j].lower);
        if (!DeltaFits(plan.delta_i, up_i, down_i) ||
            !DeltaFits(plan.delta_j, up_j, down_j)) {
          continue;
        }
      }
      out->push_back(plan);
    }
  }
}

/// Ranks that can participate in any eligible pair. Under the paper rule a
/// token whose tightest boundary `B = min(upper, lower)` cannot admit any
/// `s >= min_modulus` (every such s needs `ceil(s/2) >= ceil(min_modulus/2)
/// > B`) — or cannot afford `cost >= min_pair_cost` (a boundary-passing
/// pair has `cost <= floor(s/2) <= B`) — is pruned before any hashing. The
/// strict rule keeps every rank: its fitness depends on the residue's
/// direction, which only the hash reveals.
std::vector<uint32_t> CollectCandidates(
    const std::vector<HistogramEntry>& entries,
    const std::vector<TokenBoundary>& bounds, EligibilityRule rule,
    uint64_t min_modulus, uint64_t min_pair_cost) {
  const size_t n = entries.size();
  std::vector<uint32_t> candidates;
  candidates.reserve(n);
  const uint64_t need_floor = (min_modulus + 1) / 2;
  for (uint32_t t = 0; t < n; ++t) {
    if (rule == EligibilityRule::kPaper) {
      // kUnbounded is the max uint64, so min() picks the finite bound.
      const uint64_t b = std::min(bounds[t].upper, bounds[t].lower);
      if (b < need_floor || b < min_pair_cost) continue;
    }
    candidates.push_back(t);
  }
  return candidates;
}

}  // namespace

EligiblePair MakePairPlan(size_t rank_i, size_t rank_j, uint64_t freq_diff,
                          uint64_t s) {
  assert(s >= 2);
  EligiblePair p;
  p.rank_i = rank_i;
  p.rank_j = rank_j;
  p.s = s;
  p.remainder = freq_diff % s;

  if (p.remainder == 0) {
    p.delta_i = 0;
    p.delta_j = 0;
    p.cost = 0;
  } else if (p.remainder <= s / 2) {
    // Shrink the difference by rm: take ceil(rm/2) from the frequent token,
    // give floor(rm/2) to the rare one.
    uint64_t rm = p.remainder;
    p.delta_i = -static_cast<int64_t>((rm + 1) / 2);
    p.delta_j = static_cast<int64_t>(rm / 2);
    p.cost = rm;
  } else {
    // Wrap around: grow the difference by s - rm instead.
    uint64_t d = s - p.remainder;
    p.delta_i = static_cast<int64_t>((d + 1) / 2);
    p.delta_j = -static_cast<int64_t>(d / 2);
    p.cost = d;
  }
  return p;
}

std::vector<EligiblePair> BuildEligiblePairs(const Histogram& hist,
                                             const PairModulus& modulus,
                                             EligibilityRule rule,
                                             uint64_t min_modulus,
                                             uint64_t min_pair_cost,
                                             const ExecContext& exec) {
  if (min_modulus < 2) min_modulus = 2;
  assert(hist.IsSortedDescending());
  const auto& entries = hist.entries();
  const std::vector<TokenBoundary> bounds = ComputeBoundaries(hist);
  const std::vector<uint32_t> candidates =
      CollectCandidates(entries, bounds, rule, min_modulus, min_pair_cost);
  const size_t rows = candidates.size();

  // Inner digests H(R || tk_j), one per candidate token (non-candidates
  // are never read). Indexed writes keep the parallel fill deterministic.
  PairModulus::InnerColumns inner(rows);
  auto fill_inner = [&](size_t r) {
    inner.Set(r, modulus.InnerDigest(entries[candidates[r]].token));
  };
  if (exec.parallel() && rows >= 2) {
    exec.pool->ParallelFor(rows, fill_inner);
  } else {
    for (size_t r = 0; r < rows; ++r) fill_inner(r);
  }

  const PairScan scan{entries,     bounds,        modulus,    rule,
                      min_modulus, min_pair_cost, candidates, inner};

  // Shard the outer i-loop into contiguous candidate-row ranges of roughly
  // equal triangular work (row r scans ~rows - r candidates). Each shard
  // appends into its own vector; concatenating the shards in range order
  // reproduces the serial (rank_i, rank_j) order exactly, so the output is
  // byte-identical at any thread count.
  size_t num_shards = 1;
  if (exec.parallel() && rows >= 2) {
    num_shards = std::min(rows, (exec.pool->num_threads() + 1) * 4);
  }

  std::vector<size_t> shard_begin(num_shards + 1, rows);
  shard_begin[0] = 0;
  if (num_shards > 1) {
    const double total_work =
        static_cast<double>(rows) * static_cast<double>(rows + 1) / 2.0;
    double acc = 0.0;
    size_t shard = 1;
    for (size_t r = 0; r < rows && shard < num_shards; ++r) {
      acc += static_cast<double>(rows - r);
      if (acc >= total_work * static_cast<double>(shard) /
                     static_cast<double>(num_shards)) {
        shard_begin[shard++] = r + 1;
      }
    }
    for (; shard < num_shards; ++shard) shard_begin[shard] = rows;
  }

  std::vector<std::vector<EligiblePair>> shard_out(num_shards);
  auto run_shard = [&](size_t shard) {
    std::vector<EligiblePair>& out = shard_out[shard];
    // Modest up-front reserve; |Le| is typically a small multiple of n,
    // spread across shards, and the merge below reserves exactly.
    out.reserve(std::min<size_t>(rows, 256));
    for (size_t r = shard_begin[shard]; r < shard_begin[shard + 1]; ++r) {
      scan.ScanRow(r, &out);
    }
  };
  if (num_shards > 1) {
    exec.pool->ParallelFor(num_shards, run_shard);
  } else {
    run_shard(0);
  }
  if (num_shards == 1) return std::move(shard_out[0]);

  size_t total = 0;
  for (const auto& part : shard_out) total += part.size();
  std::vector<EligiblePair> eligible;
  eligible.reserve(total);
  for (auto& part : shard_out) {
    eligible.insert(eligible.end(), part.begin(), part.end());
  }
  return eligible;
}

std::vector<EligiblePair> BuildEligiblePairsReference(const Histogram& hist,
                                                      const PairModulus& modulus,
                                                      EligibilityRule rule,
                                                      uint64_t min_modulus,
                                                      uint64_t min_pair_cost) {
  if (min_modulus < 2) min_modulus = 2;
  assert(hist.IsSortedDescending());
  const auto& entries = hist.entries();
  const size_t n = entries.size();
  std::vector<TokenBoundary> bounds = ComputeBoundaries(hist);
  std::vector<EligiblePair> eligible;

  // Cache the inner digest H(R || tk_j) per token: the O(n^2) scan then
  // costs one outer hash per pair instead of two hashes.
  std::vector<Sha256::Digest> inner(n);
  for (size_t j = 0; j < n; ++j) {
    inner[j] = modulus.InnerDigest(entries[j].token);
  }

  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      uint64_t s = modulus.ComputeWithInner(entries[i].token, inner[j]);
      if (s < min_modulus) continue;  // s < 2 undefined; below the floor

      EligiblePair plan =
          MakePairPlan(i, j, entries[i].count - entries[j].count, s);
      if (plan.cost < min_pair_cost) continue;  // carries no evidence

      bool ok = false;
      if (rule == EligibilityRule::kPaper) {
        // All four boundaries must be at least ceil(s/2).
        const uint64_t need = (s + 1) / 2;
        auto fits = [need](uint64_t bound) {
          return bound == TokenBoundary::kUnbounded || bound >= need;
        };
        ok = fits(bounds[i].upper) && fits(bounds[i].lower) &&
             fits(bounds[j].upper) && fits(bounds[j].lower);
      } else {
        // Strict rule: the exact deltas must fit within HALF of each shared
        // gap (full slack at the unshared extremes), which provably keeps
        // the ranking for any token-disjoint set of pairs.
        uint64_t up_i = (i == 0) ? TokenBoundary::kUnbounded
                                 : HalfGap(bounds[i].upper);
        uint64_t down_i = (i + 1 == n) ? bounds[i].lower
                                       : HalfGap(bounds[i].lower);
        uint64_t up_j = (j == 0) ? TokenBoundary::kUnbounded
                                 : HalfGap(bounds[j].upper);
        uint64_t down_j = (j + 1 == n) ? bounds[j].lower
                                       : HalfGap(bounds[j].lower);
        ok = DeltaFits(plan.delta_i, up_i, down_i) &&
             DeltaFits(plan.delta_j, up_j, down_j);
      }
      if (ok) eligible.push_back(plan);
    }
  }
  return eligible;
}

}  // namespace freqywm
