// sell_rows / sell_hist: the owner sells one fingerprinted copy per buyer.
//
// The timed run is a closed loop of `FreqyWmScheme::EmbedDataset` (rows)
// or `Embed` (histogram) calls, one per buyer with its own seed. The traced
// run replays each copy stage by stage through the layers' public
// functions, with the generator's own seeds, and must reproduce the
// scheme's output byte for byte.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/freqywm_scheme.h"
#include "core/secrets.h"
#include "core/select.h"
#include "core/watermark.h"
#include "crypto/pair_modulus.h"
#include "crypto/secret.h"
#include "datagen/real_world.h"
#include "exec/thread_pool.h"
#include "harness.h"
#include "stats/similarity.h"

namespace marketbench {
namespace {

using namespace freqywm;

/// The selling configuration both sell workloads use: optimal (MWM)
/// selection at the paper's Table II modulus bound z = 131.
GenerateOptions SellOptions(uint64_t buyer_seed) {
  GenerateOptions options;
  options.strategy = SelectionStrategy::kOptimal;
  options.modulus_bound = 131;
  options.seed = buyer_seed;
  return options;
}

/// Distinct, non-zero per-buyer seed (a zero seed would draw from the OS
/// entropy pool and break reproducibility).
uint64_t BuyerSeed(uint64_t run_seed, size_t buyer) {
  uint64_t x = run_seed * 0x9E3779B97F4A7C15ULL + buyer + 1;
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  return x | 1;
}

bool SameHistogram(const Histogram& a, const Histogram& b) {
  return a.entries() == b.entries();
}

/// Per-copy counts the staged replay observes.
struct StageCounts {
  size_t eligible_pairs = 0;
  size_t active_vertices = 0;
  size_t vertices = 0;
  size_t chosen_pairs = 0;
};

/// `FreqyWmScheme::Embed(hist, exec)` replayed one layer call at a time,
/// in the generator's order and with its seeds (`GenerateSecret(λ, seed)`,
/// `Rng(seed)` for selection). Each call runs inside a span named after
/// its per-layer metric.
bool EmbedStaged(const Histogram& hist, const GenerateOptions& options,
                 const ExecContext& exec, Tracer& tracer,
                 Histogram* watermarked, SchemeKey* key,
                 std::vector<EligiblePair>* eligible_out,
                 StageCounts* counts) {
  WatermarkSecret r = GenerateSecret(options.lambda_bits, options.seed);
  PairModulus modulus(r, options.modulus_bound);

  std::vector<EligiblePair> eligible;
  {
    Tracer::Scope span(tracer, "core.eligible_scan_s");
    eligible = BuildEligiblePairs(hist, modulus, options.eligibility,
                                  options.min_modulus, options.min_pair_cost,
                                  exec);
  }
  Rng rng(options.seed);
  SelectionResult selection;
  {
    Tracer::Scope span(tracer, "matching.select_s");
    selection = SelectPairs(hist, eligible, options, rng);
  }
  if (selection.chosen.empty()) return false;

  std::vector<size_t> applied;
  {
    Tracer::Scope span(tracer, "core.apply_s");
    *watermarked = ApplyPairDeltas(hist, eligible, selection.chosen, &applied);
  }
  {
    Tracer::Scope span(tracer, "stats.similarity_s");
    (void)HistogramSimilarityPercent(hist, *watermarked, options.metric);
  }

  WatermarkSecrets secrets;
  secrets.r = std::move(r);
  secrets.z = options.modulus_bound;
  for (size_t idx : applied) {
    secrets.pairs.push_back(SecretPair{hist.entry(eligible[idx].rank_i).token,
                                       hist.entry(eligible[idx].rank_j).token});
  }
  *key = SchemeKey{"freqywm", secrets.Serialize()};

  // The blossom's useful share: tokens touching at least one eligible
  // pair, against every token it is handed.
  std::vector<bool> active(hist.num_tokens(), false);
  for (const EligiblePair& p : eligible) {
    active[p.rank_i] = true;
    active[p.rank_j] = true;
  }
  counts->eligible_pairs = eligible.size();
  counts->active_vertices = 0;
  for (bool a : active) counts->active_vertices += a ? 1 : 0;
  counts->vertices = hist.num_tokens();
  counts->chosen_pairs = applied.size();
  *eligible_out = std::move(eligible);
  return true;
}

/// One input of a sell workload: the row-level dataset (sell_rows) or
/// just its histogram (sell_hist).
struct SellInput {
  Dataset rows;
  Histogram hist;
};

/// The run's inputs, drawn from its seed. sell_hist sells off three
/// taxi-like histograms in turn: the scan and selection cost of a copy
/// depends on its base, and with one base per run the median copy time of
/// ten seeds spread 0.15 of its median, against 0.08 for five runs of one
/// seed (0.10 with three bases). sell_rows keeps one 4M-row dataset.
std::vector<SellInput> MakeInputs(bool row_level, bool toy, uint64_t seed) {
  std::vector<SellInput> inputs(row_level ? 1 : 3);
  for (size_t k = 0; k < inputs.size(); ++k) {
    Rng rng(seed + k * 0x9E3779B97F4A7C15ULL);
    if (row_level) {
      inputs[k].rows =
          MakeEyeWnderLikeDataset(rng, 11479, toy ? 300'000 : 4'000'000);
    } else {
      inputs[k].hist = MakeChicagoTaxiLikeHistogram(
          rng, toy ? 1500 : 6573, toy ? 2'000'000 : 20'000'000);
    }
  }
  return inputs;
}

/// One sold copy through the public scheme API: the watermarked rows
/// (sell_rows) or histogram (sell_hist), the key and the embed report.
struct Copy {
  bool ok = false;
  SchemeKey key;
  Histogram watermarked_hist;
  Dataset watermarked_rows;
  EmbedReport report;
};

Copy SellCopy(const SellInput& input, bool row_level, uint64_t buyer_seed,
              const ExecContext& exec) {
  FreqyWmScheme scheme(SellOptions(buyer_seed));
  Copy copy;
  if (row_level) {
    auto outcome = scheme.EmbedDataset(input.rows, exec);
    if (!outcome.ok()) return copy;
    copy.key = std::move(outcome.value().key);
    copy.report = outcome.value().report;
    copy.watermarked_rows = std::move(outcome.value().watermarked);
  } else {
    auto outcome = scheme.Embed(input.hist, exec);
    if (!outcome.ok()) return copy;
    copy.key = std::move(outcome.value().key);
    copy.report = outcome.value().report;
    copy.watermarked_hist = std::move(outcome.value().watermarked);
  }
  copy.ok = true;
  return copy;
}

/// A sold copy is correct when its own key accepts it under the scheme's
/// recommended detection settings.
bool OwnKeyAccepts(const Copy& copy, bool row_level, uint64_t buyer_seed,
                   const ExecContext& exec) {
  FreqyWmScheme scheme(SellOptions(buyer_seed));
  const Histogram hist = row_level ? exec.BuildHistogram(copy.watermarked_rows)
                                   : copy.watermarked_hist;
  const DetectOptions options = scheme.RecommendedDetectOptions(copy.key);
  return scheme.Detect(hist, copy.key, options).accepted;
}

/// The staged replay of one copy (traced when `tracer` is enabled),
/// checked byte for byte against `reference` through the identity gate.
/// `serial_baselines` adds the single-thread histogram build and eligible
/// scan as scaling baselines outside the operation span.
bool StagedCopyMatches(const SellInput& input, bool row_level,
                       uint64_t buyer_seed, const ExecContext& exec,
                       const Copy& reference, bool serial_baselines,
                       Tracer& tracer, RunResult* result,
                       StageCounts* counts) {
  const GenerateOptions options = SellOptions(buyer_seed);
  Histogram hist;
  Histogram watermarked;
  SchemeKey key;
  std::vector<EligiblePair> eligible;
  Dataset rows;
  bool ok = false;
  {
    Tracer::Scope op(tracer, "op");
    if (row_level) {
      Tracer::Scope span(tracer, "data.histogram_s");
      hist = exec.BuildHistogram(input.rows);
    }
    const Histogram& base = row_level ? hist : input.hist;
    ok = EmbedStaged(base, options, exec, tracer, &watermarked, &key,
                     &eligible, counts);
    if (ok && row_level) {
      // `WatermarkGenerator::Generate`'s row-placement stream.
      Rng rng(options.seed + 0x517cc1b727220a95ULL);
      Tracer::Scope span(tracer, "core.transform_s");
      rows = TransformDataset(input.rows, watermarked, rng);
    }
  }
  const std::string who = "copy seed " + std::to_string(buyer_seed);
  bool identical = result->gate.Check(who + ": staged replay embeds", ok);
  identical = result->gate.Check(who + ": staged key == scheme key",
                                 ok && key == reference.key) &&
              identical;
  if (row_level) {
    const bool same_rows =
        ok && rows.tokens() == reference.watermarked_rows.tokens();
    identical = result->gate.Check(who + ": staged rows == EmbedDataset rows",
                                   same_rows) &&
                identical;
  } else {
    identical = result->gate.Check(
                    who + ": staged histogram == Embed histogram",
                    ok && SameHistogram(watermarked,
                                        reference.watermarked_hist)) &&
                identical;
  }
  if (serial_baselines && ok) {
    Tracer::Scope baseline(tracer, "baseline");
    const Histogram& base = row_level ? hist : input.hist;
    if (row_level) {
      Histogram serial;
      {
        Tracer::Scope span(tracer, "data.histogram_serial_s");
        serial = Histogram::FromDataset(input.rows);
      }
      identical = result->gate.Check(who + ": pooled histogram == serial",
                                     SameHistogram(serial, hist)) &&
                  identical;
    }
    WatermarkSecret r = GenerateSecret(options.lambda_bits, options.seed);
    PairModulus modulus(r, options.modulus_bound);
    std::vector<EligiblePair> serial_pairs;
    {
      Tracer::Scope span(tracer, "core.eligible_scan_serial_s");
      serial_pairs = BuildEligiblePairs(base, modulus, options.eligibility,
                                        options.min_modulus,
                                        options.min_pair_cost, ExecContext{});
    }
    identical = result->gate.Check(who + ": pooled eligible scan == serial",
                                   serial_pairs == eligible) &&
                identical;
  }
  return identical;
}

void RunSell(const Config& config, bool row_level, RunResult* result) {
  // Set-up: generate the inputs five times from the seed and report the
  // median (every generation is identical; the last one is kept). With
  // three, the ~0.2 s sell_rows set-up spread 0.18-0.32 over ten seeds.
  std::vector<double> setups;
  std::vector<SellInput> inputs;
  for (int i = 0; i < 5; ++i) {
    inputs.clear();  // free the previous copy before generating again
    Timer setup;
    inputs = MakeInputs(row_level, config.toy, config.seed);
    setups.push_back(setup.Seconds());
  }
  // Buyer b's copy is sold off input b mod |inputs|.
  auto input_for = [&](size_t buyer) -> const SellInput& {
    return inputs[buyer % inputs.size()];
  };
  result->end_to_end["setup_s"] = Median(setups);

  const std::unique_ptr<ThreadPool> pool = MakePool(config.threads);
  const ExecContext exec(pool.get());
  Tracer untraced(false);
  StageCounts counts;

  // Untimed warm-up: the first copy on a fresh pool, checked against
  // the staged replay so every run exercises the identity gate.
  const uint64_t warm_seed = BuyerSeed(config.seed, 0);
  {
    Copy warm = SellCopy(input_for(0), row_level, warm_seed, exec);
    ++result->attempted;
    if (!warm.ok || !StagedCopyMatches(input_for(0), row_level, warm_seed, exec,
                                       warm, false, untraced, result,
                                       &counts)) {
      ++result->failed;
    }
  }

  if (config.trace) {
    const size_t ops = config.toy ? 1 : (row_level ? 3 : 4);
    Tracer tracer(true);
    double untraced_wall = 0;
    StageCounts sum;
    for (size_t i = 0; i < ops; ++i) {
      const uint64_t seed = BuyerSeed(config.seed, i + 1);
      Timer timer;
      Copy copy = SellCopy(input_for(i + 1), row_level, seed, exec);
      untraced_wall += timer.Seconds();
      tracer.set_op(i);
      ++result->attempted;
      if (!copy.ok ||
          !StagedCopyMatches(input_for(i + 1), row_level, seed, exec, copy,
                             true, tracer, result, &counts)) {
        ++result->failed;
      }
      sum.eligible_pairs += counts.eligible_pairs;
      sum.active_vertices += counts.active_vertices;
      sum.vertices += counts.vertices;
      sum.chosen_pairs += counts.chosen_pairs;
    }
    const double n = static_cast<double>(ops);
    result->per_layer["core.eligible_pairs"] = sum.eligible_pairs / n;
    result->per_layer["matching.active_vertices"] = sum.active_vertices / n;
    result->per_layer["matching.vertices"] = sum.vertices / n;
    result->per_layer["core.chosen_pairs"] = sum.chosen_pairs / n;
    if (row_level) {
      result->per_layer["data.rows"] =
          static_cast<double>(inputs[0].rows.size());
    }
    SummarizeTrace(tracer, ops, untraced_wall,
                   row_level ? std::vector<std::string>{"data.histogram_s",
                                                        "core.transform_s"}
                             : std::vector<std::string>{"core.eligible_scan_s",
                                                        "matching.select_s"},
                   result);
    if (!tracer.WriteJsonLines(config.work_dir + "/spans.jsonl")) {
      result->notes.push_back("could not write spans.jsonl");
    }
  } else {
    // Timed closed loop: one client, next buyer after the previous copy.
    std::vector<double> copy_s;
    double measured = 0;
    double units = 0;
    double eligible = 0;
    for (size_t buyer = 1;
         measured < config.seconds || copy_s.size() < 3; ++buyer) {
      const uint64_t seed = BuyerSeed(config.seed, buyer);
      Timer timer;
      Copy copy = SellCopy(input_for(buyer), row_level, seed, exec);
      const double elapsed = timer.Seconds();
      measured += elapsed;
      copy_s.push_back(elapsed);
      ++result->attempted;
      if (!copy.ok || !OwnKeyAccepts(copy, row_level, seed, exec)) {
        ++result->failed;
        result->gate.Check("copy seed " + std::to_string(seed) +
                               ": embeds and its own key accepts",
                           false);
      }
      units += static_cast<double>(copy.report.embedded_units);
      eligible += static_cast<double>(copy.report.eligible_units);
    }
    const double copies = static_cast<double>(copy_s.size());
    // Copies over the time spent selling them. Host load comes in phases
    // of several seconds that slow every copy inside them, so the median
    // copy time of a run jumps between the quiet and the loaded level; the
    // rate averages over both (run-to-run spread 0.075 against 0.15).
    result->end_to_end["ops_per_s"] = copies / measured;
    result->report["copies_per_s"] = copies / measured;
    result->report["copies"] = copies;
    result->report["copy_p50_ms"] = Median(copy_s) * 1e3;
    result->report["copy_max_ms"] = Quantile(copy_s, 1.0) * 1e3;
    result->report["embedded_pairs_mean"] = units / copies;
    result->report["eligible_pairs_mean"] = eligible / copies;
  }
  result->end_to_end["peak_rss_mb"] = PeakRssMb();
}

}  // namespace

void RunSellRows(const Config& config, RunResult* result) {
  RunSell(config, true, result);
}

void RunSellHist(const Config& config, RunResult* result) {
  RunSell(config, false, result);
}

}  // namespace marketbench
