// Quickstart: watermark a click-stream-style token dataset, store the
// owner's key, and verify a suspected copy.
//
//   $ ./examples/quickstart
//
// Walks the full owner workflow of the paper's Fig. 1 on a synthetic URL
// dataset: histogram -> eligible pairs -> optimal selection -> frequency
// modification -> data transformation -> detection.

#include <cstdio>

#include "api/freqywm_scheme.h"
#include "datagen/power_law.h"

using namespace freqywm;

int main() {
  // 1. The owner's original dataset: 100k visits over 500 domains with a
  //    realistic power-law popularity curve.
  Rng data_rng(7);
  PowerLawSpec spec;
  spec.num_tokens = 500;
  spec.sample_size = 100'000;
  spec.alpha = 0.8;
  spec.token_prefix = "domain";
  Dataset original = GeneratePowerLawDataset(spec, data_rng);
  std::printf("original dataset: %zu rows, %zu distinct tokens\n",
              original.size(),
              Histogram::FromDataset(original).num_tokens());

  // 2. Watermark it. The budget bounds the histogram distortion at 2%;
  //    z bounds the per-pair moduli; the seed makes this run repeatable
  //    (omit it in production to draw a fresh random secret).
  GenerateOptions options;
  options.budget_percent = 2.0;
  options.modulus_bound = 131;
  options.seed = 42;
  FreqyWmScheme scheme(options);
  auto generated = scheme.EmbedDataset(original);
  if (!generated.ok()) {
    std::printf("generation failed: %s\n",
                generated.status().ToString().c_str());
    return 1;
  }
  const EmbedReport& report = generated.value().report;
  std::printf("watermarked: %zu pairs embedded (of %zu eligible), "
              "similarity %.4f%%, %llu rows churned\n",
              report.embedded_units, report.eligible_units,
              report.similarity_percent,
              static_cast<unsigned long long>(report.total_churn));

  // 3. Persist the key (the secrets Lsc). This file IS the proof of
  //    ownership — store it like a private key.
  const std::string key_path = "/tmp/freqywm_quickstart_key.txt";
  if (Status s = generated.value().key.SaveToFile(key_path); !s.ok()) {
    std::printf("cannot save key: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("key saved to %s\n", key_path.c_str());

  // 4. Later: a suspected copy appears. Reload the key and detect.
  auto key = SchemeKey::LoadFromFile(key_path);
  if (!key.ok()) return 1;

  DetectOptions detect;
  detect.pair_threshold = 0;  // strict: exact modular matches only
  detect.min_pairs = report.embedded_units / 2;
  DetectResult verdict = scheme.Detect(
      Histogram::FromDataset(generated.value().watermarked), key.value(),
      detect);
  std::printf("suspect copy: %zu/%zu pairs verified -> %s\n",
              verdict.pairs_verified, report.embedded_units,
              verdict.accepted ? "WATERMARK DETECTED" : "not detected");

  // 5. Sanity: an unrelated dataset does not trip detection.
  Rng other_rng(99);
  Dataset unrelated = GeneratePowerLawDataset(spec, other_rng);
  DetectResult innocent =
      scheme.Detect(Histogram::FromDataset(unrelated), key.value(), detect);
  std::printf("unrelated data: %zu/%zu pairs verified -> %s\n",
              innocent.pairs_verified, report.embedded_units,
              innocent.accepted ? "FALSE POSITIVE?!" : "correctly rejected");
  return verdict.accepted && !innocent.accepted ? 0 : 1;
}
