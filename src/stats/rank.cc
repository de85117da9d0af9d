#include "stats/rank.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace freqywm {
namespace {

/// Average ranks (1-based) by descending value.
std::vector<double> AverageRanks(const std::vector<double>& values) {
  const size_t n = values.size();
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    if (values[x] != values[y]) return values[x] > values[y];
    return x < y;
  });
  std::vector<double> ranks(n, 0.0);
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && values[order[j + 1]] == values[order[i]]) ++j;
    double avg = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (size_t k = i; k <= j; ++k) ranks[order[k]] = avg;
    i = j + 1;
  }
  return ranks;
}

double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b) {
  const size_t n = a.size();
  if (n == 0) return 1.0;
  double ma = 0, mb = 0;
  for (size_t i = 0; i < n; ++i) {
    ma += a[i];
    mb += b[i];
  }
  ma /= static_cast<double>(n);
  mb /= static_cast<double>(n);
  double cov = 0, va = 0, vb = 0;
  for (size_t i = 0; i < n; ++i) {
    cov += (a[i] - ma) * (b[i] - mb);
    va += (a[i] - ma) * (a[i] - ma);
    vb += (b[i] - mb) * (b[i] - mb);
  }
  if (va == 0 || vb == 0) return 1.0;  // constant series: order unchanged
  return cov / std::sqrt(va * vb);
}

}  // namespace

RankComparison CompareRankings(const Histogram& original,
                               const Histogram& modified) {
  Histogram orig = original.Resorted();
  Histogram mod = modified.Resorted();

  RankComparison out;
  std::vector<double> orig_counts, mod_counts;
  for (const auto& e : orig.entries()) {
    auto mod_rank = mod.RankOf(e.token);
    if (!mod_rank) continue;
    auto orig_rank = orig.RankOf(e.token);
    ++out.compared;
    if (*orig_rank != *mod_rank) ++out.changed;
    orig_counts.push_back(static_cast<double>(e.count));
    mod_counts.push_back(static_cast<double>(*mod.CountOf(e.token)));
  }
  out.spearman = SpearmanCorrelation(orig_counts, mod_counts);
  return out;
}

double SpearmanCorrelation(const std::vector<double>& a,
                           const std::vector<double>& b) {
  if (a.size() != b.size() || a.empty()) return 1.0;
  return PearsonCorrelation(AverageRanks(a), AverageRanks(b));
}

}  // namespace freqywm
