// Micro-benchmarks (google-benchmark) for the core library primitives and
// the Gen/Detect costs behind Table II's timing columns: SHA-256, pair
// modulus derivation (full re-hash vs midstate reduce vs 16-lane batch),
// eligible-pair construction (unpruned reference vs the pruned midstate
// scan, and the sell_hist-sized scan serial and pooled), the three
// selection strategies, end-to-end generation, detection (uncached
// reference vs the per-key modulus table, one trace-like dense cell, and a
// 4 x 1,000 session drain), and the thread pool's per-loop overhead.
//
// After the google-benchmark run, main() executes the pair-enumeration
// acceptance harness (ISSUE 3): BuildEligiblePairsReference vs
// BuildEligiblePairs at 10k tokens, serial and sharded at 2/4/8 threads,
// with a byte-identity check, and writes the machine-readable
// BENCH_pair_enum.json perf baseline. Exit status is non-zero iff an
// identity check fails — never because of timing. The harness costs two
// full 50M-hash reference scans, so it only runs when FREQYWM_PERF_SMOKE
// (CI) or FREQYWM_BENCH_JSON_DIR (baseline regeneration) is set — plain
// google-benchmark invocations stay cheap.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/freqywm_scheme.h"
#include "bench_common.h"
#include "common/stopwatch.h"
#include "core/detect.h"
#include "core/eligible.h"
#include "core/select.h"
#include "core/watermark.h"
#include "crypto/pair_modulus.h"
#include "crypto/sha256.h"
#include "crypto/sha256_compress.h"
#include "datagen/power_law.h"
#include "datagen/real_world.h"
#include "exec/batch_detector.h"
#include "exec/exec_context.h"
#include "exec/thread_pool.h"

namespace freqywm {
namespace {

Histogram MakeHist(size_t tokens, size_t samples, double alpha,
                   uint64_t seed) {
  Rng rng(seed);
  PowerLawSpec spec;
  spec.num_tokens = tokens;
  spec.sample_size = samples;
  spec.alpha = alpha;
  return GeneratePowerLawHistogram(spec, rng);
}

void BM_Sha256_64B(benchmark::State& state) {
  std::string data(64, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_Sha256_64B);

void BM_Sha256_4KiB(benchmark::State& state) {
  std::string data(4096, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_Sha256_4KiB);

// One 64-byte block compression: the portable C++ rounds vs the path
// Sha256 dispatches to (SHA-NI where the CPU has it, DESIGN.md §16).
void BM_Sha256Compress(benchmark::State& state,
                       void (*compress)(uint32_t*, const uint8_t*)) {
  uint32_t words[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  uint8_t block[64];
  for (size_t i = 0; i < sizeof(block); ++i) {
    block[i] = static_cast<uint8_t>(i * 7);
  }
  for (auto _ : state) {
    compress(words, block);
    benchmark::DoNotOptimize(words);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 64);
}
BENCHMARK_CAPTURE(BM_Sha256Compress, portable,
                  sha256_internal::CompressPortable);
BENCHMARK_CAPTURE(BM_Sha256Compress, dispatched, sha256_internal::Compress);

void BM_PairModulus(benchmark::State& state) {
  WatermarkSecret secret = GenerateSecret(256, 1);
  PairModulus pm(secret, 1031);
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pm.Compute("token" + std::to_string(i++ % 100), "other"));
  }
}
BENCHMARK(BM_PairModulus);

// Before/after counter for the per-pair derivation: the bulk-scan shape
// (one outer token against many inner digests), full re-hash vs one
// midstate clone per reduction.
void BM_PairModulusInnerLoop_Rehash(benchmark::State& state) {
  WatermarkSecret secret = GenerateSecret(256, 1);
  PairModulus pm(secret, 1031);
  std::vector<Sha256::Digest> inner;
  for (int j = 0; j < 64; ++j) {
    inner.push_back(pm.InnerDigest("token" + std::to_string(j)));
  }
  size_t j = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pm.ComputeWithInner("outer-token", inner[j++ % inner.size()]));
  }
}
BENCHMARK(BM_PairModulusInnerLoop_Rehash);

// The argument is the outer token's length: up to 23 bytes its tail,
// the inner digest and the padding fit one block (one compression per
// pair), from 24 bytes they take two.
void BM_PairModulusInnerLoop_Midstate(benchmark::State& state) {
  WatermarkSecret secret = GenerateSecret(256, 1);
  PairModulus pm(secret, 1031);
  std::vector<Sha256::Digest> inner;
  for (int j = 0; j < 64; ++j) {
    inner.push_back(pm.InnerDigest("token" + std::to_string(j)));
  }
  PairModulus::OuterState outer =
      pm.OuterFor(std::string(static_cast<size_t>(state.range(0)), 'o'));
  size_t j = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(outer.Reduce(inner[j++ % inner.size()]));
  }
}
BENCHMARK(BM_PairModulusInnerLoop_Midstate)->Arg(11)->Arg(40);

// The same loop 16 pairs per call, as the eligible-pair scan runs it:
// `ReduceBatch` over column-major inner digests, on the lane kernel named
// in the run's context. Items are pairs, so the per-item time reads
// against the per-pair one above.
void BM_PairModulusBatch(benchmark::State& state) {
  WatermarkSecret secret = GenerateSecret(256, 1);
  PairModulus pm(secret, 1031);
  constexpr size_t kTokens = 64;
  constexpr size_t kBatch = PairModulus::InnerColumns::kBatch;
  PairModulus::InnerColumns inner(kTokens);
  for (size_t j = 0; j < kTokens; ++j) {
    inner.Set(j, pm.InnerDigest("token" + std::to_string(j)));
  }
  PairModulus::OuterState outer =
      pm.OuterFor(std::string(static_cast<size_t>(state.range(0)), 'o'));
  uint64_t moduli[kBatch];
  size_t first = 0;
  for (auto _ : state) {
    outer.ReduceBatch(inner, first, kBatch, moduli);
    benchmark::DoNotOptimize(moduli);
    first = (first + kBatch) % kTokens;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kBatch));
}
BENCHMARK(BM_PairModulusBatch)->Arg(11)->Arg(40);

// "Before": the unpruned one-hash-per-pair scan shipped by PR 2.
void BM_BuildEligiblePairs_Reference(benchmark::State& state) {
  const size_t tokens = static_cast<size_t>(state.range(0));
  Histogram hist = MakeHist(tokens, tokens * 1000, 0.7, 2);
  WatermarkSecret secret = GenerateSecret(256, 3);
  PairModulus pm(secret, 131);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildEligiblePairsReference(
        hist, pm, EligibilityRule::kPaper, 2, 1));
  }
  state.SetComplexityN(static_cast<int64_t>(tokens));
}
BENCHMARK(BM_BuildEligiblePairs_Reference)->Arg(100)->Arg(300)->Arg(1000)
    ->Complexity(benchmark::oNSquared);

// "After": midstate reuse + dead-token / freq-diff pruning (serial).
void BM_BuildEligiblePairs(benchmark::State& state) {
  const size_t tokens = static_cast<size_t>(state.range(0));
  Histogram hist = MakeHist(tokens, tokens * 1000, 0.7, 2);
  WatermarkSecret secret = GenerateSecret(256, 3);
  PairModulus pm(secret, 131);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BuildEligiblePairs(hist, pm, EligibilityRule::kPaper, 2, 1));
  }
  state.SetComplexityN(static_cast<int64_t>(tokens));
}
BENCHMARK(BM_BuildEligiblePairs)->Arg(100)->Arg(300)->Arg(1000)
    ->Complexity(benchmark::oNSquared);

void BM_Selection(benchmark::State& state, SelectionStrategy strategy) {
  Histogram hist = MakeHist(500, 500000, 0.7, 4);
  WatermarkSecret secret = GenerateSecret(256, 5);
  PairModulus pm(secret, 131);
  auto eligible = BuildEligiblePairs(hist, pm, EligibilityRule::kPaper, 2, 1);
  GenerateOptions o;
  o.strategy = strategy;
  o.budget_percent = 2.0;
  o.modulus_bound = 131;
  Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SelectPairs(hist, eligible, o, rng));
  }
}
BENCHMARK_CAPTURE(BM_Selection, optimal, SelectionStrategy::kOptimal);
BENCHMARK_CAPTURE(BM_Selection, greedy, SelectionStrategy::kGreedy);
BENCHMARK_CAPTURE(BM_Selection, random, SelectionStrategy::kRandom);

// Optimal (MWM) selection at the marketplace scale: a 6,573-token
// taxi-like histogram whose sample count sets |Le|: 20M samples give
// |Le| = 26.4k, the marketbench sell_hist size, and 23.1M give 33.5k, the
// paper's 33k. Inputs are built once per size and shared across runs.
struct SelectInput {
  Histogram hist;
  std::vector<EligiblePair> eligible;
};

const SelectInput& TaxiSelectInput(size_t samples) {
  static std::map<size_t, SelectInput> cache;
  auto it = cache.find(samples);
  if (it == cache.end()) {
    SelectInput input;
    Rng rng(3);
    input.hist = MakeChicagoTaxiLikeHistogram(rng, 6573, samples);
    PairModulus pm(GenerateSecret(256, 4), 131);
    input.eligible =
        BuildEligiblePairs(input.hist, pm, EligibilityRule::kPaper, 2, 1);
    it = cache.emplace(samples, std::move(input)).first;
  }
  return it->second;
}

void BM_SelectOptimal(benchmark::State& state) {
  const SelectInput& input =
      TaxiSelectInput(static_cast<size_t>(state.range(0)));
  GenerateOptions o;
  o.strategy = SelectionStrategy::kOptimal;
  o.modulus_bound = 131;
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SelectPairs(input.hist, input.eligible, o, rng));
  }
  state.counters["eligible_pairs"] =
      static_cast<double>(input.eligible.size());
}
BENCHMARK(BM_SelectOptimal)->Arg(20'000'000)->Arg(23'100'000)
    ->Unit(benchmark::kMillisecond);

// The marketbench sell_hist scan: the 20M-sample input above at z=131,
// serially (argument 0) and with 3 pool workers beside the caller.
void BM_BuildEligiblePairs_SellHist(benchmark::State& state) {
  const SelectInput& input = TaxiSelectInput(20'000'000);
  PairModulus pm(GenerateSecret(256, 4), 131);
  const auto workers = static_cast<size_t>(state.range(0));
  // ThreadPool(0) would size itself to the machine: no pool is serial.
  std::unique_ptr<ThreadPool> pool;
  if (workers > 0) pool = std::make_unique<ThreadPool>(workers);
  const ExecContext exec{pool.get()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildEligiblePairs(
        input.hist, pm, EligibilityRule::kPaper, 2, 1, exec));
  }
  state.counters["eligible_pairs"] =
      static_cast<double>(input.eligible.size());
}
BENCHMARK(BM_BuildEligiblePairs_SellHist)->Arg(0)->Arg(3)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Applying an optimal selection at marketbench's sell_rows scale: the
// 11,479-token histogram of 4M eyeWnder-like samples, z=131. Each chosen
// pair is checked at its two ranks (DESIGN.md §5).
void BM_ApplyPairDeltas(benchmark::State& state) {
  Rng rng(13);
  const Histogram hist = MakeEyeWnderLikeHistogram(rng, 11479, 4'000'000);
  PairModulus pm(GenerateSecret(256, 14), 131);
  const std::vector<EligiblePair> eligible =
      BuildEligiblePairs(hist, pm, EligibilityRule::kPaper, 2, 1);
  GenerateOptions o;
  o.strategy = SelectionStrategy::kOptimal;
  o.modulus_bound = 131;
  Rng select_rng(15);
  const SelectionResult selection =
      SelectPairs(hist, eligible, o, select_rng);
  std::vector<size_t> applied;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ApplyPairDeltas(hist, eligible, selection.chosen, &applied));
  }
  state.counters["chosen_pairs"] =
      static_cast<double>(selection.chosen.size());
}
BENCHMARK(BM_ApplyPairDeltas)->Unit(benchmark::kMicrosecond);

void BM_WmGenerate(benchmark::State& state) {
  const size_t tokens = static_cast<size_t>(state.range(0));
  Histogram hist = MakeHist(tokens, tokens * 1000, 0.7, 7);
  GenerateOptions o;
  o.budget_percent = 2.0;
  o.modulus_bound = 131;
  o.seed = 8;
  WatermarkGenerator gen(o);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.GenerateFromHistogram(hist));
  }
}
BENCHMARK(BM_WmGenerate)->Arg(100)->Arg(500)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// Detection fixture shared by the three BM_WmDetect counters.
struct DetectFixture {
  Histogram watermarked;
  WatermarkSecrets secrets;
  DetectOptions options;
  bool ok = false;
};

DetectFixture MakeDetectFixture() {
  DetectFixture f;
  Histogram hist = MakeHist(1000, 1'000'000, 0.7, 9);
  GenerateOptions o;
  o.budget_percent = 2.0;
  o.modulus_bound = 131;
  o.seed = 10;
  auto r = WatermarkGenerator(o).GenerateFromHistogram(hist);
  if (!r.ok()) return f;
  f.watermarked = r.value().watermarked;
  f.secrets = r.value().report.secrets;
  f.options.pair_threshold = 0;
  f.options.min_pairs = 1;
  f.ok = true;
  return f;
}

// "Before": two hashes per stored pair, every call.
void BM_WmDetect_Reference(benchmark::State& state) {
  DetectFixture f = MakeDetectFixture();
  if (!f.ok) {
    state.SkipWithError("generation failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DetectWatermarkReference(f.watermarked, f.secrets, f.options));
  }
}
BENCHMARK(BM_WmDetect_Reference);

// "After", serial shape: a one-off detect, which builds the key's
// PairModulusTable and runs the table pair loop once (DESIGN.md §18).
void BM_WmDetect(benchmark::State& state) {
  DetectFixture f = MakeDetectFixture();
  if (!f.ok) {
    state.SkipWithError("generation failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DetectWatermark(f.watermarked, f.secrets, f.options));
  }
}
BENCHMARK(BM_WmDetect);

// "After", batch shape: one PairModulusTable reused across calls — the
// per-suspect cost of the batch engine's hot loop (zero hashes).
void BM_WmDetect_TableReuse(benchmark::State& state) {
  DetectFixture f = MakeDetectFixture();
  if (!f.ok) {
    state.SkipWithError("generation failed");
    return;
  }
  PairModulusTable table = PairModulusTable::Build(f.secrets);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DetectWatermark(f.watermarked, table, f.options));
  }
}
BENCHMARK(BM_WmDetect_TableReuse);

// Trace-shaped detection (DESIGN.md §18): greedy z=131 FreqyWM keys
// embedded off marketbench's 300-token, 1M-sample power-law base, and
// suspects that are other buyers' copies — the foreign-key cell that
// dominates a leak trace, where each pair passes by chance at ~1/s.
struct TraceMarket {
  std::vector<SchemeKey> keys;
  std::vector<Histogram> suspects;
};

const TraceMarket& MakeTraceMarket() {
  static const TraceMarket* market = [] {
    constexpr size_t kKeys = 1000;
    constexpr size_t kSuspects = 4;
    auto* m = new TraceMarket;
    const Histogram base = MakeHist(300, 1'000'000, 0.7, 3);
    m->keys.resize(kKeys);
    std::vector<Histogram> copies(kKeys);
    ThreadPool pool(3);
    pool.ParallelFor(kKeys, [&](size_t i) {
      GenerateOptions o;
      o.strategy = SelectionStrategy::kGreedy;
      o.modulus_bound = 131;
      o.seed = 3 * 1'000'003ULL + i + 1;
      auto outcome = FreqyWmScheme(o).Embed(base);
      if (!outcome.ok()) return;
      m->keys[i] = std::move(outcome.value().key);
      copies[i] = std::move(outcome.value().watermarked);
    });
    for (size_t i = 0; i < kSuspects; ++i) {
      m->suspects.push_back(copies[kKeys - 1 - i]);
    }
    return m;
  }();
  return *market;
}

// One prepared dense cell: key 0 against a foreign copy, counts gathered
// once outside the loop — the per-cell cost of a session drain.
void BM_DetectDense(benchmark::State& state) {
  const TraceMarket& market = MakeTraceMarket();
  const FreqyWmScheme scheme;
  const std::unique_ptr<PreparedKey> prepared =
      scheme.Prepare(market.keys[0]);
  const std::vector<Token>* vocab = prepared->TokenVocabulary();
  if (vocab == nullptr) {
    state.SkipWithError("key has no vocabulary");
    return;
  }
  std::vector<uint32_t> ids(vocab->size());
  std::vector<uint64_t> counts(vocab->size(), 0);
  std::vector<uint8_t> present(vocab->size(), 0);
  for (size_t t = 0; t < vocab->size(); ++t) {
    ids[t] = static_cast<uint32_t>(t);
    const auto count = market.suspects[0].CountOf((*vocab)[t]);
    counts[t] = count.value_or(0);
    present[t] = count.has_value();
  }
  const DetectOptions options =
      scheme.RecommendedDetectOptions(market.keys[0]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        prepared->Detect(DenseSuspectCounts{counts.data(), present.data()},
                         ids.data(), options));
  }
}
BENCHMARK(BM_DetectDense);

// One checked session drain of 4 suspects x 1,000 keys on 1 or 4
// threads (the caller plus workers); the session is opened once.
void BM_SessionDrain(benchmark::State& state) {
  const TraceMarket& market = MakeTraceMarket();
  BatchDetectOptions options;
  options.num_threads = static_cast<size_t>(state.range(0));
  BatchDetector::Session session(options, market.keys);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        session.DetectChecked(market.suspects, InterruptContext{}));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(market.suspects.size() *
                                               market.keys.size()));
}
BENCHMARK(BM_SessionDrain)->Arg(1)->Arg(4)->Unit(benchmark::kMicrosecond);

void BM_HistogramFromDataset(benchmark::State& state) {
  Rng rng(11);
  PowerLawSpec spec;
  spec.num_tokens = 1000;
  spec.sample_size = static_cast<size_t>(state.range(0));
  spec.alpha = 0.7;
  Dataset data = GeneratePowerLawDataset(spec, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Histogram::FromDataset(data));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HistogramFromDataset)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

// Row-level data transformation (DESIGN.md §17) on eyeWnder-like rows at
// marketbench's vocabulary, against the target of a real optimal embed at
// z=131. The second argument is the pool's worker count. At 0 the serial
// three-argument form runs: the id count, the drop draws, the rank-match
// pass, the additions' placement and the row write. At 3 the transform
// runs as `EmbedDataset` runs it, in shards on three workers plus the
// caller, from the sharded id counts and the histogram that the embed's
// histogram build already made (so the count is not timed here; it is
// the histogram's). Inputs are built once per size and shared across runs.
struct TransformInput {
  Dataset rows;
  Histogram target;
};

const TransformInput& EyeWnderTransformInput(size_t rows) {
  static std::map<size_t, TransformInput> cache;
  auto it = cache.find(rows);
  if (it == cache.end()) {
    TransformInput input;
    Rng rng(13);
    input.rows = MakeEyeWnderLikeDataset(rng, 11479, rows);
    GenerateOptions o;
    o.strategy = SelectionStrategy::kOptimal;
    o.modulus_bound = 131;
    o.seed = 14;
    auto embedded = WatermarkGenerator(o).GenerateFromHistogram(
        Histogram::FromDataset(input.rows));
    if (embedded.ok()) input.target = std::move(embedded.value().watermarked);
    it = cache.emplace(rows, std::move(input)).first;
  }
  return it->second;
}

void BM_TransformDataset(benchmark::State& state) {
  const TransformInput& input =
      EyeWnderTransformInput(static_cast<size_t>(state.range(0)));
  if (input.target.empty()) {
    state.SkipWithError("embed found no eligible pair");
    return;
  }
  const size_t workers = static_cast<size_t>(state.range(1));
  std::unique_ptr<ThreadPool> pool;
  if (workers > 0) pool = std::make_unique<ThreadPool>(workers);
  const ExecContext exec(pool.get());
  const ShardedIdCounts counts = exec.CountIds(input.rows).value();
  const Histogram base =
      Histogram::FromIdCounts(input.rows.dictionary(), counts.total);
  for (auto _ : state) {
    Rng rng(15);
    if (pool == nullptr) {
      benchmark::DoNotOptimize(TransformDataset(input.rows, input.target, rng));
    } else {
      benchmark::DoNotOptimize(TransformDataset(input.rows, counts, &base,
                                                input.target, rng, exec));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_TransformDataset)
    ->ArgsProduct({{1'000'000, 4'000'000}, {0, 3}})
    ->Unit(benchmark::kMillisecond);

// Per-loop overhead of the pool's two loops: n empty iterations on three
// workers plus the caller, so the time is queueing, claiming and the
// completion wait alone.
void BM_ParallelFor(benchmark::State& state) {
  static ThreadPool pool(3);
  const size_t n = static_cast<size_t>(state.range(0));
  const std::function<void(size_t)> body = [](size_t) {};
  for (auto _ : state) pool.ParallelFor(n, body);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ParallelFor)->Arg(4)->Arg(64);

void BM_ParallelForChecked(benchmark::State& state) {
  static ThreadPool pool(3);
  const size_t n = static_cast<size_t>(state.range(0));
  const std::function<Status(size_t)> body = [](size_t) {
    return Status::OK();
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pool.ParallelForChecked(n, InterruptContext{}, body));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ParallelForChecked)->Arg(4)->Arg(64);

/// Busy-waits for `seconds` on the calling thread.
void Spin(double seconds) {
  const Stopwatch watch;
  while (watch.ElapsedSeconds() < seconds) {
  }
}

// Wake latency of a pool whose workers went to sleep: a 20 ms serial busy
// gap on the caller, then 16 bodies of 250 µs on three workers plus the
// caller. Only the loop is timed; four participants that all start at
// once take ~1 ms.
void BM_ParallelForAfterGap(benchmark::State& state) {
  static ThreadPool pool(3);
  const std::function<void(size_t)> body = [](size_t) { Spin(250e-6); };
  for (auto _ : state) {
    state.PauseTiming();
    Spin(20e-3);
    state.ResumeTiming();
    pool.ParallelFor(16, body);
  }
}
BENCHMARK(BM_ParallelForAfterGap)->Unit(benchmark::kMillisecond)->UseRealTime();

// ------------------------------------------------------------------------
// Pair-enumeration acceptance harness (runs after the google-benchmark
// pass): before/after wall clock at 10k tokens + identity checks +
// BENCH_pair_enum.json.

int RunPairEnumAcceptance() {
  if (!bench::PerfSmoke() &&
      std::getenv("FREQYWM_BENCH_JSON_DIR") == nullptr) {
    std::printf("\n(pair-enumeration acceptance harness skipped; set "
                "FREQYWM_PERF_SMOKE=1 or FREQYWM_BENCH_JSON_DIR to run "
                "it)\n");
    return 0;
  }
  struct Workload {
    const char* name;
    size_t tokens;
    size_t samples;
  };
  // eyewnder_like mirrors the paper's URL histogram shape (~100 samples
  // per token: long tie-heavy tail, where dead-token pruning bites);
  // dense_tail is the harder case for pruning (~1000 samples per token).
  const Workload workloads[] = {
      {"eyewnder_like_10k", 10000, 1'000'000},
      {"dense_tail_10k", 10000, 10'000'000},
  };
  const int reps = bench::PerfSmoke() ? 1 : 2;
  const uint64_t z = 1031;
  bench::IdentityGate gate;

  std::printf("\npair enumeration at 10k tokens: reference (PR 2) vs "
              "midstate+pruning (z=%llu, kPaper, min_pair_cost=1)\n",
              static_cast<unsigned long long>(z));
  std::ostringstream json;
  json << "{\n  \"bench\": \"pair_enum\",\n  \"z\": " << z
       << ",\n  \"reps\": " << reps << ",\n  \"workloads\": [\n";

  for (size_t w = 0; w < 2; ++w) {
    const Workload& load = workloads[w];
    Histogram hist = MakeHist(load.tokens, load.samples, 0.7, 21);
    WatermarkSecret secret = GenerateSecret(256, 22);
    PairModulus pm(secret, z);

    std::vector<EligiblePair> reference;
    double ref_seconds = bench::BestOfReps(reps, [&] {
      reference = BuildEligiblePairsReference(hist, pm,
                                              EligibilityRule::kPaper, 2, 1);
    });
    std::vector<EligiblePair> optimized;
    double serial_seconds = bench::BestOfReps(reps, [&] {
      optimized =
          BuildEligiblePairs(hist, pm, EligibilityRule::kPaper, 2, 1);
    });
    bool serial_identical = gate.Check(
        std::string(load.name) + ": serial scan vs reference",
        optimized == reference);

    std::printf("\n[%s] tokens=%zu samples=%zu |Le|=%zu\n", load.name,
                load.tokens, load.samples, reference.size());
    std::printf("%16s  %10.3fs  %8s\n", "reference", ref_seconds, "1.00x");
    std::printf("%16s  %10.3fs  %7.2fx  %s\n", "serial", serial_seconds,
                ref_seconds / serial_seconds,
                serial_identical ? "identical" : "MISMATCH");

    json << "    {\"name\": \"" << load.name << "\", \"tokens\": "
         << load.tokens << ", \"samples\": " << load.samples
         << ", \"eligible_pairs\": " << reference.size()
         << ",\n     \"reference_seconds\": " << ref_seconds
         << ", \"serial_seconds\": " << serial_seconds
         << ", \"serial_speedup\": " << ref_seconds / serial_seconds
         << ", \"serial_identical\": "
         << (serial_identical ? "true" : "false")
         << ",\n     \"parallel\": [";

    bool first_row = true;
    for (size_t threads : {2, 4, 8}) {
      ThreadPool pool(threads - 1);
      ExecContext exec{&pool};
      std::vector<EligiblePair> parallel;
      double seconds = bench::BestOfReps(reps, [&] {
        parallel = BuildEligiblePairs(hist, pm, EligibilityRule::kPaper, 2,
                                      1, exec);
      });
      bool identical = gate.Check(
          std::string(load.name) + " @" + std::to_string(threads) +
              " threads vs reference",
          parallel == reference);
      std::printf("%9zu thread  %10.3fs  %7.2fx  %s\n", threads, seconds,
                  ref_seconds / seconds,
                  identical ? "identical" : "MISMATCH");
      json << (first_row ? "" : ", ") << "{\"threads\": " << threads
           << ", \"seconds\": " << seconds << ", \"speedup_vs_reference\": "
           << ref_seconds / seconds << ", \"identical\": "
           << (identical ? "true" : "false") << "}";
      first_row = false;
    }
    json << "]}" << (w + 1 < 2 ? "," : "") << "\n";
  }
  json << "  ],\n  \"all_identical\": "
       << (gate.all_identical() ? "true" : "false") << "\n}\n";
  bench::WriteJsonFile(bench::JsonOutputPath("BENCH_pair_enum.json"),
                       json.str());
  return gate.Finish();
}

}  // namespace
}  // namespace freqywm

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Names the kernel the pair-scan timings ran on, in every report.
  benchmark::AddCustomContext(
      "sha256_lane_kernel", freqywm::sha256_internal::LaneKernelName());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return freqywm::RunPairEnumAcceptance();
}
