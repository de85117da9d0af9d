#include "core/select.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "matching/max_weight_matching.h"
#include "stats/similarity.h"

namespace freqywm {
namespace {

/// Scans `candidate_order` (indices into `eligible`), committing every pair
/// that keeps tokens disjoint and stays within the budget (similarity
/// floor under `options.metric`, or additive churn capacity, per
/// `options.budget_mode`).
SelectionResult FillBudget(const Histogram& hist,
                           const std::vector<EligiblePair>& eligible,
                           const std::vector<size_t>& candidate_order,
                           const GenerateOptions& options) {
  SelectionResult out;
  IncrementalSimilarity similarity(hist, options.metric);
  const double floor_percent = 100.0 - options.budget_percent;
  const uint64_t churn_capacity = static_cast<uint64_t>(
      options.budget_percent / 100.0 *
      static_cast<double>(hist.total_count()));
  uint64_t churn_used = 0;
  std::vector<char> token_used(hist.num_tokens(), 0);

  for (size_t idx : candidate_order) {
    const EligiblePair& p = eligible[idx];
    if (token_used[p.rank_i] || token_used[p.rank_j]) continue;
    if (options.budget_mode == BudgetMode::kSimilarity) {
      double prospective = similarity.ProbePairDelta(p.rank_i, p.delta_i,
                                                     p.rank_j, p.delta_j) *
                           100.0;
      if (prospective < floor_percent) continue;
    } else {
      if (churn_used + p.cost > churn_capacity) continue;
      churn_used += p.cost;
    }
    similarity.ApplyDelta(p.rank_i, p.delta_i);
    similarity.ApplyDelta(p.rank_j, p.delta_j);
    token_used[p.rank_i] = 1;
    token_used[p.rank_j] = 1;
    out.chosen.push_back(idx);
  }
  out.similarity_percent = similarity.SimilarityPercent();
  return out;
}

SelectionResult SelectOptimal(const Histogram& hist,
                              const std::vector<EligiblePair>& eligible,
                              const GenerateOptions& options) {
  // Vertices are histogram ranks; edges are eligible pairs. The weight
  // T - rm (or T - cost) makes MWM prefer many low-distortion pairs: with
  // T >= z every edge weight is positive, so a maximum-weight matching is
  // also maximum-cardinality over the cheap edges (§III-B2).
  const int64_t big_t = static_cast<int64_t>(options.modulus_bound);
  std::vector<WeightedEdge> edges;
  edges.reserve(eligible.size());
  for (const auto& p : eligible) {
    int64_t penalty =
        options.weight_formula == WeightFormula::kPaperRemainder
            ? static_cast<int64_t>(p.remainder)
            : static_cast<int64_t>(p.cost);
    edges.push_back(WeightedEdge{static_cast<int>(p.rank_i),
                                 static_cast<int>(p.rank_j),
                                 big_t - penalty});
  }
  std::vector<int> mate =
      MaxWeightMatching(static_cast<int>(hist.num_tokens()), edges);

  // Keep the matched subset of eligible pairs, then fill the budget in
  // ascending-cost order — the equally-valued 0/1 knapsack order.
  std::vector<size_t> matched;
  for (size_t idx = 0; idx < eligible.size(); ++idx) {
    const auto& p = eligible[idx];
    int u = static_cast<int>(p.rank_i);
    int v = static_cast<int>(p.rank_j);
    if (u < static_cast<int>(mate.size()) && mate[u] == v) {
      matched.push_back(idx);
    }
  }
  std::sort(matched.begin(), matched.end(), [&](size_t a, size_t b) {
    if (eligible[a].cost != eligible[b].cost) {
      return eligible[a].cost < eligible[b].cost;
    }
    return a < b;
  });
  return FillBudget(hist, eligible, matched, options);
}

SelectionResult SelectGreedy(const Histogram& hist,
                             const std::vector<EligiblePair>& eligible,
                             const GenerateOptions& options) {
  std::vector<size_t> order(eligible.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  // The paper sorts eligible pairs by ascending remainder.
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (eligible[a].remainder != eligible[b].remainder) {
      return eligible[a].remainder < eligible[b].remainder;
    }
    return a < b;
  });
  return FillBudget(hist, eligible, order, options);
}

SelectionResult SelectRandom(const Histogram& hist,
                             const std::vector<EligiblePair>& eligible,
                             const GenerateOptions& options, Rng& rng) {
  std::vector<size_t> order(eligible.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(order);
  return FillBudget(hist, eligible, order, options);
}

}  // namespace

SelectionResult SelectPairs(const Histogram& hist,
                            const std::vector<EligiblePair>& eligible,
                            const GenerateOptions& options, Rng& rng) {
  switch (options.strategy) {
    case SelectionStrategy::kOptimal:
      return SelectOptimal(hist, eligible, options);
    case SelectionStrategy::kGreedy:
      return SelectGreedy(hist, eligible, options);
    case SelectionStrategy::kRandom:
      return SelectRandom(hist, eligible, options, rng);
  }
  assert(false && "unknown selection strategy");
  return {};
}

}  // namespace freqywm
