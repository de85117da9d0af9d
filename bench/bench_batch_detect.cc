// bench_batch_detect: throughput of the batch detection engine
// (src/exec/batch_detector.h) against the serial per-cell loop, plus the
// key-prepared detection acceptance run (ISSUE 3).
//
// Workload: the paper's marketplace threat model — one owner escrowed a
// fingerprint key per buyer (mixed schemes) and screens a batch of
// surfaced suspect copies against all of them, a |suspects| x |keys|
// matrix of `WatermarkScheme::Detect` calls.
//
// Reported: cells/second serial vs parallel at several thread counts, the
// speedup, and an element-wise identity check between the two paths (the
// determinism contract; also enforced by tests/exec/batch_detector_test.cc
// and tests/exec/prepared_detect_test.cc). The 32-suspect x 8-key FreqyWM
// section compares the PR 2 per-cell path (key parsed and every modulus
// re-derived per cell) against the prepared-key engine, the before/after
// counter behind the BENCH_batch_detect.json perf baseline.
//
// The streaming section (ISSUE 5) measures the same 32 x 8 acceptance
// matrix through `BatchDetector::Session`: the PR 3 prepared-key loop
// (per-cell count gather by hashing into the suspect histogram) is the
// "before" side; the dense-gather session with a shared `PreparedKeyCache`
// (cold, then warm) is the "after". Chunked streams (1 and 8 suspects per
// drain) must match the one-shot matrix element-wise; the results land in
// BENCH_batch_detect_stream.json. Speedups depend on the machine;
// identity must hold everywhere — the process exits non-zero on any
// mismatch (never on timing).

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/factory.h"
#include "api/scheme.h"
#include "bench_common.h"
#include "common/stopwatch.h"
#include "exec/batch_detector.h"
#include "exec/exec_context.h"
#include "exec/thread_pool.h"

using namespace freqywm;

namespace {

constexpr size_t kNumBuyers = 24;
constexpr size_t kNumSuspects = 16;
constexpr size_t kSuspectTokens = 4000;
constexpr size_t kSuspectSamples = 400000;

// The ISSUE 3 acceptance matrix: FreqyWM keys only, so the per-key
// modulus table carries the whole before/after difference.
constexpr size_t kAcceptSuspects = 32;
constexpr size_t kAcceptKeys = 8;

int Reps() { return bench::PerfSmoke() ? 1 : 5; }

/// Embeds one fingerprint per buyer on a shared original histogram;
/// returns the escrowed keys and the buyers' watermarked copies.
/// `scheme_names` cycles round-robin (pass a single name for a
/// single-scheme escrow).
std::pair<std::vector<SchemeKey>, std::vector<Histogram>> MakeEscrow(
    const Histogram& original, const std::vector<std::string>& scheme_names,
    size_t num_buyers) {
  std::vector<SchemeKey> keys;
  std::vector<Histogram> copies;
  for (size_t b = 0; b < num_buyers; ++b) {
    const std::string& name = scheme_names[b % scheme_names.size()];
    OptionBag bag;
    bag.Set("seed", std::to_string(1000 + b));
    // Keep the embed side cheap at this histogram size; detection cost is
    // what this bench measures and it is strategy-independent.
    if (name == "freqywm") bag.Set("strategy", "greedy");
    auto scheme = SchemeFactory::Create(name, bag);
    if (!scheme.ok()) continue;
    auto outcome = scheme.value()->Embed(original);
    if (!outcome.ok()) continue;
    keys.push_back(outcome.value().key);
    copies.push_back(std::move(outcome).value().watermarked);
  }
  return {std::move(keys), std::move(copies)};
}

/// Suspect pool: leaked buyer copies (each matching exactly one escrowed
/// key) interleaved with clean histograms, so the matrix holds both hits
/// and misses.
std::vector<Histogram> MakeSuspects(const std::vector<Histogram>& copies,
                                    size_t num_suspects) {
  std::vector<Histogram> suspects;
  for (size_t s = 0; s < num_suspects; ++s) {
    if (s % 3 == 2 || copies.empty()) {
      suspects.push_back(bench::MakeSynthetic(0.6, 500 + s, kSuspectTokens,
                                              kSuspectSamples));
    } else {
      suspects.push_back(copies[s % copies.size()]);
    }
  }
  return suspects;
}

double BestOfReps(const std::function<void()>& fn) {
  return bench::BestOfReps(Reps(), fn);
}

/// The PR 2 per-cell path: per-key schemes and options resolved up front
/// (as the old engine did), then every cell parses the key payload and
/// re-derives every pair modulus from scratch. This is the "before" side
/// of the acceptance counter.
std::vector<std::vector<DetectResult>> UnpreparedSerialMatrix(
    const std::vector<Histogram>& suspects,
    const std::vector<SchemeKey>& keys) {
  SchemeCache cache;
  std::vector<const WatermarkScheme*> key_scheme(keys.size(), nullptr);
  std::vector<DetectOptions> key_options(keys.size());
  for (size_t j = 0; j < keys.size(); ++j) {
    key_scheme[j] = cache.Get(keys[j].scheme);
    if (key_scheme[j] == nullptr) continue;
    key_options[j] = key_scheme[j]->RecommendedDetectOptions(keys[j]);
  }
  std::vector<std::vector<DetectResult>> results(
      suspects.size(), std::vector<DetectResult>(keys.size()));
  for (size_t i = 0; i < suspects.size(); ++i) {
    for (size_t j = 0; j < keys.size(); ++j) {
      if (key_scheme[j] == nullptr) continue;
      results[i][j] =
          key_scheme[j]->Detect(suspects[i], keys[j], key_options[j]);
    }
  }
  return results;
}

/// The PR 3 engine loop kept verbatim as the streaming section's "before"
/// side: every key `Prepare`d once per run, then every cell runs the
/// prepared *histogram-path* detect — one hash probe into the suspect per
/// key token per cell. The dense-gather session replaces exactly this.
std::vector<std::vector<DetectResult>> Pr3PreparedSerialMatrix(
    const std::vector<Histogram>& suspects,
    const std::vector<SchemeKey>& keys) {
  SchemeCache cache;
  std::vector<const WatermarkScheme*> key_scheme(keys.size(), nullptr);
  std::vector<DetectOptions> key_options(keys.size());
  std::vector<std::unique_ptr<PreparedKey>> prepared(keys.size());
  for (size_t j = 0; j < keys.size(); ++j) {
    key_scheme[j] = cache.Get(keys[j].scheme);
    if (key_scheme[j] == nullptr) continue;
    key_options[j] = key_scheme[j]->RecommendedDetectOptions(keys[j]);
    prepared[j] = key_scheme[j]->Prepare(keys[j]);
  }
  std::vector<std::vector<DetectResult>> results(
      suspects.size(), std::vector<DetectResult>(keys.size()));
  for (size_t i = 0; i < suspects.size(); ++i) {
    for (size_t j = 0; j < keys.size(); ++j) {
      if (key_scheme[j] == nullptr) continue;
      results[i][j] = prepared[j]->Detect(suspects[i], key_options[j]);
    }
  }
  return results;
}

/// Streams the suspects through a session `chunk` at a time and
/// concatenates the drained rows.
std::vector<std::vector<DetectResult>> StreamChunked(
    BatchDetector::Session& session, const std::vector<Histogram>& suspects,
    size_t chunk) {
  std::vector<std::vector<DetectResult>> all;
  for (size_t start = 0; start < suspects.size(); start += chunk) {
    const size_t end = std::min(start + chunk, suspects.size());
    session.AddSuspects(std::vector<Histogram>(suspects.begin() + start,
                                               suspects.begin() + end));
    auto rows = session.DrainChecked(InterruptContext{}).verdicts;
    for (auto& row : rows) all.push_back(std::move(row));
  }
  return all;
}

}  // namespace

int main() {
  bench::PrintBanner(
      "batch detection engine: serial vs parallel (suspects x keys)",
      "system scale-out of the paper's \"verify very fast\" claim (§I)");

  bench::IdentityGate gate;
  std::ostringstream json;
  json << "{\n  \"bench\": \"batch_detect\",\n  \"reps\": " << Reps()
       << ",\n";

  // ---------------------------------------------- mixed-scheme matrix
  Histogram original =
      bench::MakeSynthetic(0.6, 42, kSuspectTokens, kSuspectSamples);
  auto [keys, copies] =
      MakeEscrow(original, SchemeFactory::RegisteredNames(), kNumBuyers);
  std::vector<Histogram> suspects = MakeSuspects(copies, kNumSuspects);
  const size_t cells = suspects.size() * keys.size();
  std::printf("matrix: %zu suspects x %zu keys = %zu detect cells "
              "(histograms: %zu tokens)\n\n",
              suspects.size(), keys.size(), cells, kSuspectTokens);

  BatchDetectOptions serial_opts;  // num_threads = 1 → serial reference
  std::vector<std::vector<DetectResult>> reference;
  double serial_best = BestOfReps([&] {
    reference = BatchDetector::Session(serial_opts, keys)
                    .DetectChecked(suspects, InterruptContext{})
                    .verdicts;
  });
  std::printf("%8s  %12s  %10s  %9s\n", "threads", "seconds", "cells/s",
              "speedup");
  std::printf("%8d  %12.4f  %10.0f  %9s\n", 1, serial_best,
              cells / serial_best, "1.00x");
  json << "  \"mixed_matrix\": {\"suspects\": " << suspects.size()
       << ", \"keys\": " << keys.size()
       << ", \"serial_seconds\": " << serial_best << ", \"rows\": [";

  bool first_row = true;
  for (size_t threads : {2, 4, 8}) {
    BatchDetectOptions opts;
    opts.num_threads = threads;
    // threads = total parallelism: this thread helps, so threads-1 workers.
    ThreadPool pool(threads - 1);
    std::vector<std::vector<DetectResult>> results;
    double best = BestOfReps([&] {
      results = BatchDetector::Session(opts, keys, &pool)
                    .DetectChecked(suspects, InterruptContext{})
                    .verdicts;
    });
    bool identical = gate.Check(
        "mixed matrix @" + std::to_string(threads) + " threads vs serial",
        results == reference);
    std::printf("%8zu  %12.4f  %10.0f  %8.2fx  %s\n", threads, best,
                cells / best, serial_best / best,
                identical ? "identical to serial" : "MISMATCH");
    json << (first_row ? "" : ", ") << "{\"threads\": " << threads
         << ", \"seconds\": " << best << ", \"speedup\": "
         << serial_best / best << ", \"identical\": "
         << (identical ? "true" : "false") << "}";
    first_row = false;
  }
  json << "]},\n";

  // ------------------------- ISSUE 3 acceptance: 32 x 8 FreqyWM keys,
  // per-cell key parsing + modulus re-derivation vs the prepared engine.
  std::printf("\nkey-prepared detection (32 suspects x 8 freqywm keys):\n");
  auto [fw_keys, fw_copies] =
      MakeEscrow(original, {"freqywm"}, kAcceptKeys);
  std::vector<Histogram> fw_suspects =
      MakeSuspects(fw_copies, kAcceptSuspects);
  const size_t fw_cells = fw_suspects.size() * fw_keys.size();

  std::vector<std::vector<DetectResult>> fw_reference;
  double before_best = BestOfReps([&] {
    fw_reference = UnpreparedSerialMatrix(fw_suspects, fw_keys);
  });
  std::printf("%16s  %12.4f  %10.0f  %9s\n", "before (PR 2)", before_best,
              fw_cells / before_best, "1.00x");
  json << "  \"freqywm_prepared\": {\"suspects\": " << fw_suspects.size()
       << ", \"keys\": " << fw_keys.size()
       << ", \"before_seconds\": " << before_best << ", \"rows\": [";

  double best_speedup = 0.0;
  first_row = true;
  for (size_t threads : {1, 2, 4, 8}) {
    BatchDetectOptions opts;
    opts.num_threads = threads;
    std::vector<std::vector<DetectResult>> results;
    double best = BestOfReps([&] {
      results = BatchDetector::Session(opts, fw_keys)
                    .DetectChecked(fw_suspects, InterruptContext{})
                    .verdicts;
    });
    bool identical = gate.Check(
        "prepared engine @" + std::to_string(threads) + " threads vs PR 2",
        results == fw_reference);
    best_speedup = std::max(best_speedup, before_best / best);
    std::printf("%9zu thread  %12.4f  %10.0f  %8.2fx  %s\n", threads, best,
                fw_cells / best, before_best / best,
                identical ? "identical to before" : "MISMATCH");
    json << (first_row ? "" : ", ") << "{\"threads\": " << threads
         << ", \"seconds\": " << best << ", \"speedup_vs_before\": "
         << before_best / best << ", \"identical\": "
         << (identical ? "true" : "false") << "}";
    first_row = false;
  }
  json << "], \"best_speedup\": " << best_speedup << "},\n";

  // ------------------- ISSUE 5 acceptance: streaming session over the
  // same 32 x 8 matrix — dense count gather + PreparedKeyCache vs the
  // PR 3 prepared-key loop, single-core first (the acceptance counter),
  // then across thread counts, chunkings and cache temperatures.
  std::printf("\nstreaming session, dense gather + key cache "
              "(32 suspects x 8 freqywm keys):\n");
  std::vector<std::vector<DetectResult>> pr3_matrix;
  double pr3_best = BestOfReps([&] {
    pr3_matrix = Pr3PreparedSerialMatrix(fw_suspects, fw_keys);
  });
  bool pr3_identical =
      gate.Check("PR 3 prepared loop vs PR 2 reference",
                 pr3_matrix == fw_reference);
  // Section-local accumulator: the stream JSON must report *this*
  // section's identity, not inherit a mismatch from the earlier matrices.
  bool stream_identical = pr3_identical;
  std::printf("%22s  %12.4f  %10.0f  %9s  %s\n", "before (PR 3 prepared)",
              pr3_best, fw_cells / pr3_best, "1.00x",
              pr3_identical ? "identical" : "MISMATCH");

  std::ostringstream stream_json;
  // hardware_threads contextualizes the thread rows: on a 1-core runner
  // the >1-thread rows measure pool overhead, and the single-core speedup
  // is the acceptance payload.
  stream_json << "{\n  \"bench\": \"batch_detect_stream\",\n  \"reps\": "
              << Reps() << ",\n  \"hardware_threads\": "
              << ThreadPool::HardwareThreads()
              << ",\n  \"suspects\": " << fw_suspects.size()
              << ",\n  \"keys\": " << fw_keys.size()
              << ",\n  \"pr3_prepared_seconds\": " << pr3_best << ",\n";

  // Cold vs warm: the cold session pays Prepare through the cache, the
  // warm ones find every key already prepared. Output must not notice.
  auto shared_cache = std::make_shared<PreparedKeyCache>();
  {
    BatchDetectOptions opts;
    opts.key_cache = shared_cache;
    BatchDetector::Session cold_session(opts, fw_keys);
    std::printf("%22s  vocabulary: %zu dense tokens, cache misses: %llu\n",
                "session setup (cold)", cold_session.vocabulary_size(),
                static_cast<unsigned long long>(
                    shared_cache->stats().misses));
    stream_json << "  \"vocabulary\": " << cold_session.vocabulary_size()
                << ",\n";
  }

  double stream_best_speedup = 0.0;
  stream_json << "  \"rows\": [";
  first_row = true;
  for (size_t threads : {1, 2, 4, 8}) {
    BatchDetectOptions opts;
    opts.num_threads = threads;
    opts.key_cache = shared_cache;  // warm from here on
    std::vector<std::vector<DetectResult>> one_shot;
    double warm_best = BestOfReps([&] {
      BatchDetector::Session session(opts, fw_keys);
      one_shot =
          session.DetectChecked(fw_suspects, InterruptContext{}).verdicts;
    });
    bool identical = one_shot == fw_reference;

    // Chunked streams through one persistent session: byte-identical to
    // the one-shot matrix at any chunk size.
    BatchDetector::Session session(opts, fw_keys);
    bool chunks_identical = true;
    for (size_t chunk : {size_t{1}, size_t{8}}) {
      chunks_identical = chunks_identical &&
                         StreamChunked(session, fw_suspects, chunk) ==
                             fw_reference;
    }
    identical = gate.Check(
        "streaming session @" + std::to_string(threads) +
            " threads (one-shot + chunked 1/8) vs PR 2",
        identical && chunks_identical);
    stream_identical = stream_identical && identical;
    if (threads == 1) {
      stream_best_speedup = pr3_best / warm_best;
    }
    std::printf("%15zu thread  %12.4f  %10.0f  %8.2fx  %s\n", threads,
                warm_best, fw_cells / warm_best, pr3_best / warm_best,
                identical ? "identical (one-shot + chunked 1/8)"
                          : "MISMATCH");
    stream_json << (first_row ? "" : ", ") << "{\"threads\": " << threads
                << ", \"warm_seconds\": " << warm_best
                << ", \"speedup_vs_pr3\": " << pr3_best / warm_best
                << ", \"chunked_identical\": "
                << (chunks_identical ? "true" : "false")
                << ", \"identical\": " << (identical ? "true" : "false")
                << "}";
    first_row = false;
  }
  PreparedKeyCacheStats cache_stats = shared_cache->stats();
  std::printf("%22s  single-core speedup vs PR 3: %.2fx  "
              "(cache: %llu hits / %llu misses)\n", "",
              stream_best_speedup,
              static_cast<unsigned long long>(cache_stats.hits),
              static_cast<unsigned long long>(cache_stats.misses));
  stream_json << "],\n  \"single_core_speedup_vs_pr3\": "
              << stream_best_speedup
              << ",\n  \"cache_hits\": " << cache_stats.hits
              << ",\n  \"cache_misses\": " << cache_stats.misses
              << ",\n  \"all_identical\": "
              << (stream_identical ? "true" : "false") << "\n}\n";
  bench::WriteJsonFile(
      bench::JsonOutputPath("BENCH_batch_detect_stream.json"),
      stream_json.str());

  json << "  \"all_identical\": "
       << (gate.all_identical() ? "true" : "false") << "\n}\n";

  bench::WriteJsonFile(bench::JsonOutputPath("BENCH_batch_detect.json"),
                       json.str());
  return gate.Finish();
}
