#include "datagen/real_world.h"

#include <cassert>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "datagen/power_law.h"

namespace freqywm {
namespace {

/// Approximate standard normal via sum of uniforms (Irwin–Hall, 12 terms).
/// Accuracy is ample for shaping synthetic popularity curves.
double ApproxNormal(Rng& rng) {
  double s = 0.0;
  for (int i = 0; i < 12; ++i) s += rng.UniformDouble();
  return s - 6.0;
}

Histogram HistogramFromWeights(const std::vector<double>& weights,
                               const std::string& prefix, size_t sample_size,
                               Rng& rng) {
  AliasSampler sampler(weights);
  std::vector<uint64_t> counts(weights.size(), 0);
  for (size_t i = 0; i < sample_size; ++i) ++counts[sampler.Sample(rng)];
  std::vector<HistogramEntry> entries;
  entries.reserve(weights.size());
  for (size_t i = 0; i < weights.size(); ++i) {
    if (counts[i] > 0) {
      entries.push_back({prefix + std::to_string(i), counts[i]});
    }
  }
  Result<Histogram> h = Histogram::FromCounts(std::move(entries));
  assert(h.ok());
  return std::move(h).value();
}

std::vector<double> EyeWnderWeights(size_t num_urls, Rng& rng) {
  // Steep Zipf head (news/social giants) + multiplicative noise; exponent
  // ~1.05 gives the long flat tail of once-visited domains that keeps the
  // eligible-pair count small.
  std::vector<double> w(num_urls);
  for (size_t i = 0; i < num_urls; ++i) {
    double zipf = std::pow(static_cast<double>(i + 1), -1.05);
    double noise = std::exp(0.35 * ApproxNormal(rng));
    w[i] = zipf * noise;
  }
  return w;
}

}  // namespace

Histogram MakeChicagoTaxiLikeHistogram(Rng& rng, size_t num_taxis,
                                       size_t sample_size) {
  // Lognormal taxi activity: ln(trips) ~ N(mu, sigma). sigma = 0.9 spreads
  // counts over ~2 orders of magnitude, which is what produces the paper's
  // very large eligible-pair count.
  std::vector<double> w(num_taxis);
  for (size_t i = 0; i < num_taxis; ++i) {
    w[i] = std::exp(0.9 * ApproxNormal(rng));
  }
  return HistogramFromWeights(w, "taxi", sample_size, rng);
}

Histogram MakeEyeWnderLikeHistogram(Rng& rng, size_t num_urls,
                                    size_t sample_size) {
  return HistogramFromWeights(EyeWnderWeights(num_urls, rng), "url",
                              sample_size, rng);
}

Dataset MakeEyeWnderLikeDataset(Rng& rng, size_t num_urls,
                                size_t sample_size) {
  std::vector<double> w = EyeWnderWeights(num_urls, rng);
  AliasSampler sampler(w);
  // Row ids are the sampler's indices into a dictionary of every url.
  std::vector<Token> urls(num_urls);
  for (size_t i = 0; i < num_urls; ++i) urls[i] = "url" + std::to_string(i);
  RowIds rows(sample_size);
  for (uint32_t& row : rows) row = static_cast<uint32_t>(sampler.Sample(rng));
  return Dataset(std::make_shared<const TokenDictionary>(std::move(urls)),
                 std::move(rows));
}

TableDataset MakeAdultLikeTable(Rng& rng, size_t num_rows) {
  // Age pyramid over 73 distinct ages (17..89), peaked in the mid-30s like
  // the UCI Adult marginal.
  constexpr int kMinAge = 17;
  constexpr int kNumAges = 73;
  std::vector<double> age_w(kNumAges);
  for (int i = 0; i < kNumAges; ++i) {
    double age = kMinAge + i;
    age_w[i] = std::exp(-std::pow((age - 36.0) / 14.0, 2.0) / 2.0) + 0.02;
  }
  AliasSampler age_sampler(age_w);

  const std::vector<std::string> work_classes = {
      "Private",      "Self-emp-not-inc", "Self-emp-inc",
      "Federal-gov",  "Local-gov",        "State-gov",
      "Without-pay",  "Never-worked",     "Unknown"};
  // "Private" dominates the UCI marginal (~69%).
  const std::vector<double> work_w = {69.4, 7.9, 3.5, 2.9, 6.4,
                                      4.1,  0.04, 0.02, 5.7};
  AliasSampler work_sampler(work_w);

  const std::vector<std::string> educations = {
      "Bachelors", "HS-grad",   "11th",        "Masters",     "9th",
      "Some-college", "Assoc-acdm", "Assoc-voc", "7th-8th",   "Doctorate",
      "Prof-school",  "5th-6th",    "10th",      "1st-4th",   "Preschool",
      "12th"};
  const std::vector<double> edu_w = {16.4, 32.3, 3.7, 5.4, 1.6, 22.3, 3.3,
                                     4.2,  2.0,  1.2, 1.7, 1.0, 2.9,  0.5,
                                     0.2,  1.3};
  AliasSampler edu_sampler(edu_w);

  TableDataset table({"Age", "WorkClass", "Education", "HoursPerWeek"});
  for (size_t r = 0; r < num_rows; ++r) {
    int age = kMinAge + static_cast<int>(age_sampler.Sample(rng));
    std::string work = work_classes[work_sampler.Sample(rng)];
    std::string edu = educations[edu_sampler.Sample(rng)];
    // Hours cluster hard at 40.
    int hours = rng.Bernoulli(0.45)
                    ? 40
                    : static_cast<int>(rng.UniformInt(10, 80));
    Status s = table.AppendRow(
        {std::to_string(age), work, edu, std::to_string(hours)});
    assert(s.ok());
    (void)s;
  }
  return table;
}

}  // namespace freqywm
