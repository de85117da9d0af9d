// freqywm_cli: command-line front end for the library, so datasets can be
// watermarked and verified without writing C++.
//
//   freqywm_cli generate <tokens-in> <tokens-out> <key-out>
//               [--scheme NAME] [--opt k=v,...]
//               [--budget B] [--z Z] [--min-modulus M] [--strategy S]
//               [--seed N] [--threads N]
//   freqywm_cli detect   <tokens-in> <key-in> [--t T] [--k K]
//               [--symmetric] [--original-size N]
//   freqywm_cli schemes
//
// `--threads N` (N > 1) runs the embed with the eligible-pair scan sharded
// across a thread pool (src/exec/); the output is bit-identical to the
// serial run.
//
// Schemes are selected at runtime through the `SchemeFactory`; `--opt`
// passes scheme-specific options as a generic bag (see `schemes` for the
// registered names). The legacy FreqyWM flags (--budget, --z, ...) remain
// as shorthands for the equivalent bag entries. `detect` reads both the
// scheme-tagged key files this tool now writes and legacy FreqyWM secrets
// files.
//
// Token files are one token per line (data/io.h).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "api/factory.h"
#include "api/scheme.h"
#include "common/string_util.h"
#include "core/secrets.h"
#include "data/io.h"
#include "exec/exec_context.h"
#include "exec/thread_pool.h"

using namespace freqywm;

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  freqywm_cli generate <in> <out> <key> [--scheme NAME]\n"
      "              [--opt k=v,...] [--budget B] [--z Z]\n"
      "              [--min-modulus M] [--strategy optimal|greedy|random]\n"
      "              [--seed N] [--threads N]\n"
      "  freqywm_cli detect <in> <key> [--t T] [--k K] [--symmetric]\n"
      "              [--original-size N]\n"
      "  freqywm_cli schemes\n");
}

bool ParseFlag(int argc, char** argv, int& i, const char* name,
               std::string* value) {
  if (std::strcmp(argv[i], name) != 0) return false;
  if (i + 1 >= argc) {
    std::fprintf(stderr, "%s needs a value\n", name);
    std::exit(2);
  }
  *value = argv[++i];
  return true;
}

/// Strict numeric flag parsing through `ParseU64`: the whole token must
/// be digits ("12abc", " -5" and overflowing values are rejected instead
/// of silently wrapped).
uint64_t ParseU64Value(const char* flag, const std::string& text) {
  Result<uint64_t> value = ParseU64(text);
  if (!value.ok()) {
    std::fprintf(stderr, "%s: '%s' is not a non-negative integer\n", flag,
                 text.c_str());
    std::exit(2);
  }
  return value.value();
}

int RunGenerate(int argc, char** argv) {
  if (argc < 5) {
    Usage();
    return 2;
  }
  const std::string in_path = argv[2];
  const std::string out_path = argv[3];
  const std::string key_path = argv[4];

  std::string scheme_name = "freqywm";
  uint64_t num_threads = 1;
  OptionBag bag;
  for (int i = 5; i < argc; ++i) {
    std::string v;
    if (ParseFlag(argc, argv, i, "--scheme", &v)) {
      scheme_name = v;
    } else if (ParseFlag(argc, argv, i, "--threads", &v)) {
      num_threads = ParseU64Value("--threads", v);
      if (num_threads == 0) num_threads = ThreadPool::HardwareThreads();
    } else if (ParseFlag(argc, argv, i, "--opt", &v)) {
      auto parsed = OptionBag::FromString(v);
      if (!parsed.ok()) {
        std::fprintf(stderr, "bad --opt: %s\n",
                     parsed.status().ToString().c_str());
        return 2;
      }
      for (const auto& [key, value] : parsed.value().entries()) {
        bag.Set(key, value);
      }
    } else if (ParseFlag(argc, argv, i, "--budget", &v)) {
      bag.Set("budget", v);
    } else if (ParseFlag(argc, argv, i, "--z", &v)) {
      bag.Set("z", v);
    } else if (ParseFlag(argc, argv, i, "--min-modulus", &v)) {
      bag.Set("min_modulus", v);
    } else if (ParseFlag(argc, argv, i, "--seed", &v)) {
      bag.Set("seed", v);
    } else if (ParseFlag(argc, argv, i, "--strategy", &v)) {
      bag.Set("strategy", v);
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return 2;
    }
  }
  // Historical CLI default: z = 131 unless the caller picks one.
  if (scheme_name == "freqywm" && !bag.Has("z")) bag.Set("z", "131");

  auto scheme = SchemeFactory::Create(scheme_name, bag);
  if (!scheme.ok()) {
    std::fprintf(stderr, "cannot create scheme '%s': %s\n",
                 scheme_name.c_str(), scheme.status().ToString().c_str());
    return 2;
  }

  auto dataset = ReadTokenFile(in_path);
  if (!dataset.ok()) {
    std::fprintf(stderr, "cannot read '%s': %s\n", in_path.c_str(),
                 dataset.status().ToString().c_str());
    return 1;
  }
  // The pool is optional and the outcome identical either way; --threads
  // only changes how fast the histogram aggregation runs. N is the total
  // parallelism — this thread participates, so N-1 workers.
  std::unique_ptr<ThreadPool> pool;
  if (num_threads > 1) pool = std::make_unique<ThreadPool>(num_threads - 1);
  ExecContext exec{pool.get()};
  auto result = scheme.value()->EmbedDataset(dataset.value(), exec);
  if (!result.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  if (Status s = WriteTokenFile(result.value().watermarked, out_path);
      !s.ok()) {
    std::fprintf(stderr, "cannot write '%s': %s\n", out_path.c_str(),
                 s.ToString().c_str());
    return 1;
  }
  if (Status s = result.value().key.SaveToFile(key_path); !s.ok()) {
    std::fprintf(stderr, "cannot write key: %s\n", s.ToString().c_str());
    return 1;
  }
  const EmbedReport& report = result.value().report;
  std::printf("scheme %s: embedded %zu units (of %zu eligible), "
              "similarity %.4f%%, churn %llu rows\n",
              scheme_name.c_str(), report.embedded_units,
              report.eligible_units, report.similarity_percent,
              static_cast<unsigned long long>(report.total_churn));
  std::printf("watermarked tokens -> %s\nscheme key -> %s (keep private!)\n",
              out_path.c_str(), key_path.c_str());
  return 0;
}

/// Reads a scheme-tagged key file, falling back to a legacy FreqyWM
/// secrets file (the format this CLI wrote before the API redesign).
Result<SchemeKey> LoadKey(const std::string& path) {
  auto key = SchemeKey::LoadFromFile(path);
  if (key.ok() || key.status().code() == StatusCode::kNotFound) return key;
  auto secrets = WatermarkSecrets::LoadFromFile(path);
  if (!secrets.ok()) return key.status();  // report the key error
  return SchemeKey{"freqywm", secrets.value().Serialize()};
}

int RunDetect(int argc, char** argv) {
  if (argc < 4) {
    Usage();
    return 2;
  }
  const std::string in_path = argv[2];
  const std::string key_path = argv[3];

  auto key = LoadKey(key_path);
  if (!key.ok()) {
    std::fprintf(stderr, "cannot read key: %s\n",
                 key.status().ToString().c_str());
    return 1;
  }
  auto scheme = SchemeFactory::Create(key.value().scheme);
  if (!scheme.ok()) {
    std::fprintf(stderr, "key is for scheme '%s': %s\n",
                 key.value().scheme.c_str(),
                 scheme.status().ToString().c_str());
    return 1;
  }

  // One parse of the key: the prepared key is the detector and carries
  // the default settings the flags below override.
  const std::unique_ptr<PreparedKey> prepared =
      scheme.value()->Prepare(key.value());
  DetectOptions options = prepared->recommended_options();
  uint64_t original_size = 0;
  for (int i = 4; i < argc; ++i) {
    std::string v;
    if (ParseFlag(argc, argv, i, "--t", &v)) {
      options.pair_threshold = ParseU64Value("--t", v);
    } else if (ParseFlag(argc, argv, i, "--k", &v)) {
      options.min_pairs = ParseU64Value("--k", v);
    } else if (ParseFlag(argc, argv, i, "--original-size", &v)) {
      original_size = ParseU64Value("--original-size", v);
    } else if (std::strcmp(argv[i], "--symmetric") == 0) {
      options.symmetric_residue = true;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return 2;
    }
  }

  auto dataset = ReadTokenFile(in_path);
  if (!dataset.ok()) {
    std::fprintf(stderr, "cannot read '%s': %s\n", in_path.c_str(),
                 dataset.status().ToString().c_str());
    return 1;
  }
  if (original_size > 0 && dataset.value().size() > 0) {
    options.rescale_factor = static_cast<double>(original_size) /
                             static_cast<double>(dataset.value().size());
  }

  DetectResult result =
      prepared->Detect(Histogram::FromDataset(dataset.value()), options);
  std::printf("scheme %s: units found %zu, verified %zu (%.1f%%)\n",
              key.value().scheme.c_str(), result.pairs_found,
              result.pairs_verified, result.verified_fraction * 100);
  std::printf("verdict: %s\n",
              result.accepted ? "WATERMARK DETECTED" : "not detected");
  return result.accepted ? 0 : 3;
}

int RunSchemes() {
  std::printf("registered schemes:\n");
  for (const std::string& name : SchemeFactory::RegisteredNames()) {
    std::printf("  %s\n", name.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  if (std::strcmp(argv[1], "generate") == 0) return RunGenerate(argc, argv);
  if (std::strcmp(argv[1], "detect") == 0) return RunDetect(argc, argv);
  if (std::strcmp(argv[1], "schemes") == 0) return RunSchemes();
  Usage();
  return 2;
}
