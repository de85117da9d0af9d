#include "api/factory.h"

#include <algorithm>

#include "api/freqywm_scheme.h"
#include "api/key_util.h"
#include "api/wm_obt_scheme.h"
#include "api/wm_rvs_scheme.h"
#include "common/string_util.h"
#include "core/watermark.h"

namespace freqywm {

// ---------------------------------------------------------------- OptionBag

Result<OptionBag> OptionBag::FromString(std::string_view text) {
  OptionBag bag;
  for (const std::string& part : Split(text, ',')) {
    std::string_view stripped = StripWhitespace(part);
    if (stripped.empty()) continue;
    size_t eq = stripped.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return Status::InvalidArgument("option '" + std::string(stripped) +
                                     "' is not key=value");
    }
    bag.Set(std::string(StripWhitespace(stripped.substr(0, eq))),
            std::string(StripWhitespace(stripped.substr(eq + 1))));
  }
  return bag;
}

void OptionBag::Set(const std::string& key, const std::string& value) {
  entries_[key] = value;
}

bool OptionBag::Has(const std::string& key) const {
  return entries_.count(key) > 0;
}

Result<std::string> OptionBag::GetString(const std::string& key,
                                         std::string fallback) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? std::move(fallback) : it->second;
}

namespace {

/// Parses the value of option `key` through `parse`, naming the key in
/// the error.
template <typename T>
Result<T> ParseOption(const std::string& key, const std::string& text,
                      Result<T> (*parse)(std::string_view)) {
  Result<T> value = parse(text);
  if (value.ok()) return value;
  return Status::InvalidArgument("option '" + key +
                                 "': " + value.status().message());
}

}  // namespace

Result<double> OptionBag::GetDouble(const std::string& key,
                                    double fallback) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? fallback
                              : ParseOption(key, it->second, ParseFiniteDouble);
}

Result<uint64_t> OptionBag::GetU64(const std::string& key,
                                   uint64_t fallback) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? fallback
                              : ParseOption(key, it->second, ParseU64);
}

Status OptionBag::ExpectOnly(
    std::initializer_list<std::string_view> allowed) const {
  for (const auto& [key, value] : entries_) {
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      return Status::InvalidArgument("unknown option '" + key + "'");
    }
  }
  return Status::OK();
}

// ------------------------------------------------------------ SchemeFactory

namespace {

/// Builder for "freqywm": the generator knobs of `GenerateOptions`.
Result<std::unique_ptr<WatermarkScheme>> BuildFreqyWm(const OptionBag& bag) {
  FREQYWM_RETURN_NOT_OK(
      bag.ExpectOnly({"budget", "z", "min_modulus", "min_pair_cost",
                      "strategy", "budget_mode", "eligibility", "weight",
                      "metric", "lambda", "seed", "refresh_churn"}));
  GenerateOptions o;
  FREQYWM_ASSIGN_OR_RETURN(o.budget_percent,
                           bag.GetDouble("budget", o.budget_percent));
  FREQYWM_ASSIGN_OR_RETURN(o.modulus_bound, bag.GetU64("z", o.modulus_bound));
  FREQYWM_ASSIGN_OR_RETURN(o.min_modulus,
                           bag.GetU64("min_modulus", o.min_modulus));
  FREQYWM_ASSIGN_OR_RETURN(o.min_pair_cost,
                           bag.GetU64("min_pair_cost", o.min_pair_cost));
  FREQYWM_ASSIGN_OR_RETURN(uint64_t lambda,
                           bag.GetU64("lambda", o.lambda_bits));
  o.lambda_bits = lambda;
  FREQYWM_ASSIGN_OR_RETURN(o.seed, bag.GetU64("seed", o.seed));

  FREQYWM_ASSIGN_OR_RETURN(std::string strategy,
                           bag.GetString("strategy", "optimal"));
  if (strategy == "optimal") {
    o.strategy = SelectionStrategy::kOptimal;
  } else if (strategy == "greedy") {
    o.strategy = SelectionStrategy::kGreedy;
  } else if (strategy == "random") {
    o.strategy = SelectionStrategy::kRandom;
  } else {
    return Status::InvalidArgument("unknown strategy '" + strategy + "'");
  }

  FREQYWM_ASSIGN_OR_RETURN(std::string budget_mode,
                           bag.GetString("budget_mode", "similarity"));
  if (budget_mode == "similarity") {
    o.budget_mode = BudgetMode::kSimilarity;
  } else if (budget_mode == "additive-churn") {
    o.budget_mode = BudgetMode::kAdditiveChurn;
  } else {
    return Status::InvalidArgument("unknown budget_mode '" + budget_mode +
                                   "'");
  }

  FREQYWM_ASSIGN_OR_RETURN(std::string eligibility,
                           bag.GetString("eligibility", "paper"));
  if (eligibility == "paper") {
    o.eligibility = EligibilityRule::kPaper;
  } else if (eligibility == "strict-half-gap") {
    o.eligibility = EligibilityRule::kStrictHalfGap;
  } else {
    return Status::InvalidArgument("unknown eligibility '" + eligibility +
                                   "'");
  }

  FREQYWM_ASSIGN_OR_RETURN(std::string weight,
                           bag.GetString("weight", "paper"));
  if (weight == "paper") {
    o.weight_formula = WeightFormula::kPaperRemainder;
  } else if (weight == "effective-cost") {
    o.weight_formula = WeightFormula::kEffectiveCost;
  } else {
    return Status::InvalidArgument("unknown weight '" + weight + "'");
  }

  FREQYWM_ASSIGN_OR_RETURN(std::string metric,
                           bag.GetString("metric", "cosine"));
  if (metric == "cosine") {
    o.metric = SimilarityMetric::kCosine;
  } else if (metric == "l1") {
    o.metric = SimilarityMetric::kNormalizedL1;
  } else if (metric == "minmax") {
    o.metric = SimilarityMetric::kMinMaxRatio;
  } else {
    return Status::InvalidArgument("unknown metric '" + metric + "'");
  }

  // The ranges every embed checks, checked here once so a bad value is a
  // usage error, not an embed failure.
  FREQYWM_RETURN_NOT_OK(WatermarkGenerator::ValidateOptions(o));

  RefreshOptions refresh;
  FREQYWM_ASSIGN_OR_RETURN(
      refresh.max_churn_percent,
      bag.GetDouble("refresh_churn", refresh.max_churn_percent));
  return std::unique_ptr<WatermarkScheme>(
      std::make_unique<FreqyWmScheme>(o, refresh));
}

/// Builder for "wm-obt": partition key, bit string and GA knobs.
Result<std::unique_ptr<WatermarkScheme>> BuildWmObt(const OptionBag& bag) {
  FREQYWM_RETURN_NOT_OK(
      bag.ExpectOnly({"seed", "partitions", "bits", "condition",
                      "decode_threshold", "min_change", "max_change",
                      "population", "generations", "mutation_rate"}));
  WmObtOptions o;
  FREQYWM_ASSIGN_OR_RETURN(o.key_seed, bag.GetU64("seed", o.key_seed));
  FREQYWM_ASSIGN_OR_RETURN(uint64_t partitions,
                           bag.GetU64("partitions", o.num_partitions));
  if (partitions == 0 || partitions > kWmObtMaxPartitions) {
    return Status::InvalidArgument("partitions must be in [1, " +
                                   std::to_string(kWmObtMaxPartitions) + "]");
  }
  o.num_partitions = partitions;
  FREQYWM_ASSIGN_OR_RETURN(o.condition,
                           bag.GetDouble("condition", o.condition));
  FREQYWM_ASSIGN_OR_RETURN(
      o.decode_threshold,
      bag.GetDouble("decode_threshold", o.decode_threshold));
  FREQYWM_ASSIGN_OR_RETURN(
      o.min_change_fraction,
      bag.GetDouble("min_change", o.min_change_fraction));
  FREQYWM_ASSIGN_OR_RETURN(
      o.max_change_fraction,
      bag.GetDouble("max_change", o.max_change_fraction));
  FREQYWM_ASSIGN_OR_RETURN(uint64_t population,
                           bag.GetU64("population", o.population));
  FREQYWM_ASSIGN_OR_RETURN(uint64_t generations,
                           bag.GetU64("generations", o.generations));
  if (population == 0 || population > kWmObtMaxPopulation) {
    return Status::InvalidArgument("population must be in [1, " +
                                   std::to_string(kWmObtMaxPopulation) + "]");
  }
  if (generations > kWmObtMaxGenerations) {
    return Status::InvalidArgument("generations must be at most " +
                                   std::to_string(kWmObtMaxGenerations));
  }
  o.population = population;
  o.generations = generations;
  FREQYWM_ASSIGN_OR_RETURN(o.mutation_rate,
                           bag.GetDouble("mutation_rate", o.mutation_rate));
  if (bag.Has("bits")) {
    FREQYWM_ASSIGN_OR_RETURN(std::string bits, bag.GetString("bits", ""));
    FREQYWM_ASSIGN_OR_RETURN(o.watermark_bits, ParseBitString(bits));
  }
  return std::unique_ptr<WatermarkScheme>(std::make_unique<WmObtScheme>(o));
}

/// Builder for "wm-rvs": digit key and bit string.
Result<std::unique_ptr<WatermarkScheme>> BuildWmRvs(const OptionBag& bag) {
  FREQYWM_RETURN_NOT_OK(
      bag.ExpectOnly({"seed", "bits", "max_digit_position"}));
  WmRvsOptions o;
  FREQYWM_ASSIGN_OR_RETURN(o.key_seed, bag.GetU64("seed", o.key_seed));
  FREQYWM_ASSIGN_OR_RETURN(
      uint64_t pos,
      bag.GetU64("max_digit_position",
                 static_cast<uint64_t>(o.max_digit_position)));
  if (pos > 18) {
    return Status::InvalidArgument("max_digit_position out of range");
  }
  o.max_digit_position = static_cast<int>(pos);
  if (bag.Has("bits")) {
    FREQYWM_ASSIGN_OR_RETURN(std::string bits, bag.GetString("bits", ""));
    FREQYWM_ASSIGN_OR_RETURN(o.watermark_bits, ParseBitString(bits));
  }
  return std::unique_ptr<WatermarkScheme>(std::make_unique<WmRvsScheme>(o));
}

/// The closed scheme table, sorted by name: `RegisteredNames` lists it in
/// order and `Create` scans it. Adding a scheme means adding one row.
struct SchemeEntry {
  std::string_view name;
  Result<std::unique_ptr<WatermarkScheme>> (*build)(const OptionBag&);
};
constexpr SchemeEntry kSchemes[] = {
    {"freqywm", BuildFreqyWm},
    {"wm-obt", BuildWmObt},
    {"wm-rvs", BuildWmRvs},
};

}  // namespace

Result<std::unique_ptr<WatermarkScheme>> SchemeFactory::Create(
    const std::string& name, const OptionBag& options) {
  for (const SchemeEntry& entry : kSchemes) {
    if (entry.name == name) return entry.build(options);
  }
  return Status::NotFound("no scheme registered as '" + name + "'");
}

std::vector<std::string> SchemeFactory::RegisteredNames() {
  std::vector<std::string> names;
  for (const SchemeEntry& entry : kSchemes) names.emplace_back(entry.name);
  return names;
}

const WatermarkScheme* SchemeCache::Get(const std::string& name) {
  auto it = schemes_.find(name);
  if (it == schemes_.end()) {
    auto created = SchemeFactory::Create(name);
    it = schemes_
             .emplace(name, created.ok() ? std::move(created).value()
                                         : nullptr)
             .first;
  }
  return it->second.get();
}

}  // namespace freqywm
