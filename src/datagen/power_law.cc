#include "datagen/power_law.h"

#include <cassert>
#include <cmath>
#include <memory>

namespace freqywm {

std::vector<double> PowerLawProbabilities(size_t num_tokens, double alpha) {
  std::vector<double> p(num_tokens);
  double total = 0.0;
  for (size_t i = 0; i < num_tokens; ++i) {
    p[i] = std::pow(static_cast<double>(i + 1), -alpha);
    total += p[i];
  }
  for (auto& v : p) v /= total;
  return p;
}

AliasSampler::AliasSampler(const std::vector<double>& weights) {
  const size_t n = weights.size();
  assert(n > 0);
  double total = 0.0;
  for (double w : weights) total += w;
  assert(total > 0.0);

  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  std::vector<double> scaled(n);
  for (size_t i = 0; i < n; ++i) {
    scaled[i] = weights[i] * static_cast<double>(n) / total;
  }

  std::vector<size_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(i);
  }
  while (!small.empty() && !large.empty()) {
    size_t s = small.back();
    small.pop_back();
    size_t l = large.back();
    large.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  while (!large.empty()) {
    prob_[large.back()] = 1.0;
    large.pop_back();
  }
  while (!small.empty()) {
    prob_[small.back()] = 1.0;  // numerical leftovers
    small.pop_back();
  }
}

size_t AliasSampler::Sample(Rng& rng) const {
  size_t i = static_cast<size_t>(rng.UniformU64(prob_.size()));
  return rng.UniformDouble() < prob_[i] ? i : alias_[i];
}

namespace {

std::vector<Token> MakeTokenNames(const PowerLawSpec& spec) {
  std::vector<Token> names(spec.num_tokens);
  for (size_t i = 0; i < spec.num_tokens; ++i) {
    names[i] = spec.token_prefix + std::to_string(i);
  }
  return names;
}

}  // namespace

Dataset GeneratePowerLawDataset(const PowerLawSpec& spec, Rng& rng) {
  AliasSampler sampler(PowerLawProbabilities(spec.num_tokens, spec.alpha));
  // Row ids are the sampler's indices into the token names.
  RowIds rows(spec.sample_size);
  for (uint32_t& row : rows) row = static_cast<uint32_t>(sampler.Sample(rng));
  return Dataset(std::make_shared<const TokenDictionary>(MakeTokenNames(spec)),
                 std::move(rows));
}

Histogram GeneratePowerLawHistogram(const PowerLawSpec& spec, Rng& rng) {
  std::vector<Token> names = MakeTokenNames(spec);
  AliasSampler sampler(PowerLawProbabilities(spec.num_tokens, spec.alpha));
  std::vector<uint64_t> counts(spec.num_tokens, 0);
  for (size_t i = 0; i < spec.sample_size; ++i) ++counts[sampler.Sample(rng)];

  std::vector<HistogramEntry> entries;
  entries.reserve(spec.num_tokens);
  for (size_t i = 0; i < spec.num_tokens; ++i) {
    if (counts[i] > 0) entries.push_back({names[i], counts[i]});
  }
  Result<Histogram> h = Histogram::FromCounts(std::move(entries));
  // Cannot fail: tokens are distinct by construction and zero counts are
  // filtered above.
  assert(h.ok());
  return std::move(h).value();
}

}  // namespace freqywm
