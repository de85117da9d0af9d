// trace: the owner screens leaked copies against every escrowed buyer key.
//
// About 1k FreqyWM keys (greedy, z = 131) are embedded off one shared
// base histogram and escrowed in an in-memory `TenantContext`. Suspects
// are leaked buyer copies under the paper's sampling (50 %),
// destroy-boundary (1 %) and reorder (±1 %) attacks, the clean base, and
// unrelated histograms; each carries its leaker (or none) as ground
// truth. The timed run is a closed loop of small batches, each through
// `TenantSession::Submit` and `DrainChecked`.

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/tenant.h"
#include "api/attack.h"
#include "api/freqywm_scheme.h"
#include "datagen/power_law.h"
#include "exec/batch_detector.h"
#include "exec/thread_pool.h"
#include "harness.h"

namespace marketbench {
namespace {

using namespace freqywm;

constexpr int kNoLeaker = -1;

/// Suspect kinds, in the order of the per-attack split.
enum Kind { kSampling, kDestroy, kReorder, kClean, kUnrelated, kKinds };
const char* const kKindNames[kKinds] = {"sampling_50", "destroy_boundary_1",
                                        "reorder_1", "clean_base",
                                        "unrelated"};

struct Suspect {
  Histogram hist;
  int leaker = kNoLeaker;
  Kind kind = kClean;
};

struct Sizes {
  size_t keys;
  size_t leaked_per_attack;
  size_t clean;
  size_t unrelated;
  size_t batch;
};

Sizes SizesFor(bool toy) {
  if (toy) return Sizes{64, 8, 2, 2, 4};
  return Sizes{1000, 40, 4, 4, 4};
}

Histogram MakeBase(uint64_t seed) {
  Rng rng(seed);
  PowerLawSpec spec;
  spec.num_tokens = 300;
  spec.sample_size = 1'000'000;
  spec.alpha = 0.7;
  return GeneratePowerLawHistogram(spec, rng);
}

struct Market {
  std::vector<SchemeKey> keys;
  std::vector<Suspect> suspects;
  std::unique_ptr<TenantContext> tenant;
};

/// Embeds every buyer's key off the shared base (in parallel over buyers;
/// each embed is deterministic in its seed), builds the ground-truth
/// suspect pool, and escrows the keys in a fresh in-memory tenant.
bool SetUp(const Sizes& sizes, uint64_t seed, ThreadPool* pool,
           Market* market) {
  const Histogram base = MakeBase(seed);
  std::vector<SchemeKey> keys(sizes.keys);
  std::vector<Histogram> copies(sizes.keys);
  std::vector<uint8_t> ok(sizes.keys, 0);
  ForEach(pool, sizes.keys, [&](size_t i) {
    GenerateOptions options;
    options.strategy = SelectionStrategy::kGreedy;
    options.modulus_bound = 131;
    options.seed = seed * 1'000'003ULL + i + 1;
    auto outcome = FreqyWmScheme(options).Embed(base);
    if (!outcome.ok()) return;
    keys[i] = std::move(outcome.value().key);
    copies[i] = std::move(outcome.value().watermarked);
    ok[i] = 1;
  });
  if (std::count(ok.begin(), ok.end(), 1) != static_cast<long>(sizes.keys)) {
    return false;
  }

  Rng rng(seed ^ 0x5eed5eedULL);
  const std::vector<std::unique_ptr<Attack>> attacks = [] {
    std::vector<std::unique_ptr<Attack>> a;
    a.push_back(MakeSamplingAttack(0.5));
    a.push_back(MakePercentOfBoundaryAttack(1.0));
    a.push_back(MakeReorderingAttack(1.0));
    return a;
  }();
  std::vector<size_t> leakers = rng.SampleWithoutReplacement(
      sizes.keys, attacks.size() * sizes.leaked_per_attack);
  std::vector<Suspect> suspects;
  for (size_t a = 0; a < attacks.size(); ++a) {
    for (size_t k = 0; k < sizes.leaked_per_attack; ++k) {
      const size_t leaker = leakers[a * sizes.leaked_per_attack + k];
      suspects.push_back(Suspect{attacks[a]->Apply(copies[leaker], rng),
                                 static_cast<int>(leaker),
                                 static_cast<Kind>(a)});
    }
  }
  for (size_t i = 0; i < sizes.clean; ++i) {
    suspects.push_back(Suspect{base, kNoLeaker, kClean});
  }
  for (size_t i = 0; i < sizes.unrelated; ++i) {
    suspects.push_back(
        Suspect{MakeBase(seed * 7919 + i + 1), kNoLeaker, kUnrelated});
  }
  rng.Shuffle(suspects);

  auto tenant = std::make_unique<TenantContext>("marketbench-trace");
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!tenant->Escrow("buyer-" + std::to_string(i), keys[i]).ok()) {
      return false;
    }
  }
  market->keys = std::move(keys);
  market->suspects = std::move(suspects);
  market->tenant = std::move(tenant);
  return true;
}

/// Ground-truth scoring of one verdict matrix over the whole pool.
void Score(const Market& market,
           const std::vector<std::vector<DetectResult>>& verdicts,
           RunResult* result) {
  size_t foreign[kKinds] = {};
  size_t foreign_accepted[kKinds] = {};
  size_t leaked[kKinds] = {};
  size_t missed[kKinds] = {};
  for (size_t i = 0; i < market.suspects.size(); ++i) {
    const Suspect& s = market.suspects[i];
    for (size_t j = 0; j < market.keys.size(); ++j) {
      const bool accepted = verdicts[i][j].accepted;
      if (static_cast<int>(j) == s.leaker) {
        ++leaked[s.kind];
        missed[s.kind] += accepted ? 0 : 1;
      } else {
        ++foreign[s.kind];
        foreign_accepted[s.kind] += accepted ? 1 : 0;
      }
    }
  }
  size_t f = 0, fa = 0, l = 0, m = 0;
  for (int k = 0; k < kKinds; ++k) {
    f += foreign[k];
    fa += foreign_accepted[k];
    l += leaked[k];
    m += missed[k];
    const std::string name = kKindNames[k];
    if (foreign[k] > 0) {
      result->report["false_accept_rate." + name] =
          static_cast<double>(foreign_accepted[k]) / foreign[k];
    }
    if (leaked[k] > 0) {
      result->report["miss_rate." + name] =
          static_cast<double>(missed[k]) / leaked[k];
    }
  }
  const double far = f > 0 ? static_cast<double>(fa) / f : 0;
  const double miss = l > 0 ? static_cast<double>(m) / l : 0;
  result->report["false_accept_rate"] = far;
  result->report["false_accepts"] = static_cast<double>(fa);
  result->report["foreign_cells"] = static_cast<double>(f);
  result->report["miss_rate"] = miss;
  result->report["leaked_copies"] = static_cast<double>(l);
  result->per_layer["core.false_accept_rate"] = far;
  result->per_layer["core.miss_rate"] = miss;
}

bool AllOk(const std::vector<Status>& statuses) {
  return std::all_of(statuses.begin(), statuses.end(),
                     [](const Status& s) { return s.ok(); });
}

/// Row `i` of `got` equals the reference row of suspect `rows[i]`.
bool RowsMatch(const std::vector<std::vector<DetectResult>>& got,
               const std::vector<std::vector<DetectResult>>& reference,
               const std::vector<size_t>& rows) {
  if (got.size() != rows.size()) return false;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (got[i] != reference[rows[i]]) return false;
  }
  return true;
}

/// One closed-loop batch: Submit + DrainChecked over `rows` of the pool.
struct BatchOutcome {
  bool ok = false;
  double seconds = 0;
};

BatchOutcome RunBatch(const Market& market, TenantSession& session,
                      const std::vector<size_t>& rows,
                      const std::vector<std::vector<DetectResult>>& reference,
                      Tracer& tracer) {
  std::vector<Histogram> batch;
  batch.reserve(rows.size());
  for (size_t row : rows) batch.push_back(market.suspects[row].hist);
  BatchOutcome outcome;
  Timer timer;
  Status submitted;
  SessionDrainResult drained;
  {
    Tracer::Scope op(tracer, "op");
    {
      Tracer::Scope span(tracer, "exec.admission_s");
      submitted = session.Submit(std::move(batch), InterruptContext{});
    }
    Tracer::Scope span(tracer, "exec.drain_s");
    drained = session.DrainChecked(InterruptContext{});
  }
  outcome.seconds = timer.Seconds();
  outcome.ok = submitted.ok() && drained.status.ok() &&
               AllOk(drained.key_status) && drained.cell_errors.empty() &&
               RowsMatch(drained.verdicts, reference, rows);
  return outcome;
}

std::vector<size_t> BatchRows(size_t batch_index, size_t batch,
                              size_t pool_size) {
  std::vector<size_t> rows;
  for (size_t k = 0; k < batch; ++k) {
    rows.push_back((batch_index * batch + k) % pool_size);
  }
  return rows;
}

/// The prepared dense `Detect` timed directly on every (suspect, key)
/// cell of the first `sample_keys` keys; returns µs per cell and checks
/// each verdict against the reference.
double DetectCellMicros(const Market& market, size_t sample_keys,
                        const std::vector<std::vector<DetectResult>>& reference,
                        RunResult* result) {
  const FreqyWmScheme scheme;
  double seconds = 0;
  size_t cells = 0;
  bool identical = true;
  for (size_t j = 0; j < std::min(sample_keys, market.keys.size()); ++j) {
    const std::unique_ptr<PreparedKey> prepared =
        scheme.Prepare(market.keys[j]);
    const std::vector<Token>* vocab = prepared->TokenVocabulary();
    if (vocab == nullptr) {
      identical = false;
      continue;
    }
    const DetectOptions options =
        scheme.RecommendedDetectOptions(market.keys[j]);
    std::vector<uint32_t> ids(vocab->size());
    for (size_t t = 0; t < ids.size(); ++t) ids[t] = static_cast<uint32_t>(t);
    for (size_t i = 0; i < market.suspects.size(); ++i) {
      std::vector<uint64_t> counts(vocab->size(), 0);
      std::vector<uint8_t> present(vocab->size(), 0);
      for (size_t t = 0; t < vocab->size(); ++t) {
        const auto count = market.suspects[i].hist.CountOf((*vocab)[t]);
        if (count) {
          counts[t] = *count;
          present[t] = 1;
        }
      }
      Timer timer;
      const DetectResult verdict = scheme.Detect(
          DenseSuspectCounts{counts.data(), present.data()}, ids.data(),
          *prepared, options);
      seconds += timer.Seconds();
      ++cells;
      identical = identical && verdict == reference[i][j];
    }
  }
  result->gate.Check("dense Detect on sampled cells == session verdicts",
                     identical);
  return cells > 0 ? seconds * 1e6 / static_cast<double>(cells) : 0;
}

}  // namespace

void RunTrace(const Config& config, RunResult* result) {
  const Sizes sizes = SizesFor(config.toy);
  const std::unique_ptr<ThreadPool> pool = MakePool(config.threads);

  std::vector<double> setups;
  Market market;
  for (int i = 0; i < 3; ++i) {
    market = Market{};
    Timer setup;
    const bool ok = SetUp(sizes, config.seed, pool.get(), &market);
    setups.push_back(setup.Seconds());
    if (!result->gate.Check("trace set-up embeds and escrows every key", ok)) {
      ++result->attempted;
      ++result->failed;
      return;
    }
  }
  result->end_to_end["setup_s"] = Median(setups);
  const size_t pool_size = market.suspects.size();

  // Untimed warm-up: a cold session over every escrowed key drains the
  // whole pool at once; its matrix is the reference every later batch
  // (other chunking, traced, single-thread) must reproduce.
  Timer open_timer;
  auto opened = market.tenant->OpenSession(config.threads);
  const double session_open_s = open_timer.Seconds();
  if (!result->gate.Check("open tenant session", opened.ok())) {
    ++result->attempted;
    ++result->failed;
    return;
  }
  TenantSession& session = *opened.value();
  std::vector<Histogram> all;
  for (const Suspect& s : market.suspects) all.push_back(s.hist);
  Status submitted = session.Submit(std::move(all), InterruptContext{});
  SessionDrainResult warm = session.DrainChecked(InterruptContext{});
  const bool warm_ok = submitted.ok() && warm.status.ok() &&
                       AllOk(warm.key_status) && warm.cell_errors.empty() &&
                       warm.verdicts.size() == pool_size;
  if (!result->gate.Check("warm-up drain of the whole pool", warm_ok)) {
    ++result->attempted;
    ++result->failed;
    return;
  }
  const std::vector<std::vector<DetectResult>> reference =
      std::move(warm.verdicts);
  Score(market, reference, result);
  result->report["session_open_s"] = session_open_s;
  result->report["keys"] = static_cast<double>(market.keys.size());
  result->report["pool_suspects"] = static_cast<double>(pool_size);

  const size_t cells_per_batch = sizes.batch * market.keys.size();
  Tracer untraced(false);
  if (config.trace) {
    const size_t ops = config.toy ? 20 : 300;
    double untraced_wall = 0;
    for (size_t b = 0; b < ops; ++b) {
      BatchOutcome outcome =
          RunBatch(market, session, BatchRows(b, sizes.batch, pool_size),
                   reference, untraced);
      untraced_wall += outcome.seconds;
      ++result->attempted;
      if (!outcome.ok) ++result->failed;
    }

    // Cold costs, measured on fresh tenants so no cache is warm.
    const FreqyWmScheme scheme;
    Timer prepare_timer;
    for (const SchemeKey& key : market.keys) (void)scheme.Prepare(key);
    result->per_layer["api.prepare_s"] = prepare_timer.Seconds();
    std::vector<double> opens;
    for (int rep = 0; rep < 3; ++rep) {
      TenantContext fresh("marketbench-trace-cold");
      for (size_t i = 0; i < market.keys.size(); ++i) {
        (void)fresh.Escrow("buyer-" + std::to_string(i), market.keys[i]);
      }
      Timer timer;
      auto cold = fresh.OpenSession(config.threads);
      opens.push_back(timer.Seconds());
      result->gate.Check("cold session opens", cold.ok());
    }
    result->per_layer["exec.session_open_s"] = Median(opens);

    BatchDetectOptions serial_options;
    serial_options.num_threads = 1;
    BatchDetector::Session serial(serial_options, market.keys);
    result->per_layer["exec.vocabulary_size"] =
        static_cast<double>(serial.vocabulary_size());

    const EngineHealthSnapshot before = market.tenant->Health();
    Tracer tracer(true);
    bool serial_identical = true;
    for (size_t b = 0; b < ops; ++b) {
      const std::vector<size_t> rows = BatchRows(b, sizes.batch, pool_size);
      tracer.set_op(b);
      BatchOutcome outcome = RunBatch(market, session, rows, reference, tracer);
      ++result->attempted;
      if (!outcome.ok) ++result->failed;
      std::vector<Histogram> batch;
      for (size_t row : rows) batch.push_back(market.suspects[row].hist);
      Tracer::Scope baseline(tracer, "baseline");
      Tracer::Scope span(tracer, "exec.drain_serial_s");
      SessionDrainResult one = serial.DetectChecked(batch, InterruptContext{});
      serial_identical = serial_identical && one.status.ok() &&
                         RowsMatch(one.verdicts, reference, rows);
    }
    const EngineHealthSnapshot after = market.tenant->Health();
    result->gate.Check("traced and 1-thread verdicts == untraced reference",
                       serial_identical);
    if (!serial_identical) ++result->failed;

    SummarizeTrace(tracer, ops, untraced_wall, {"exec.drain_s"}, result);
    result->per_layer["exec.cells"] = static_cast<double>(cells_per_batch);
    // The tenant's cache counters over its whole life: the cold warm-up
    // open (misses) and every lookup since.
    result->per_layer["exec.cache_hits"] =
        static_cast<double>(after.key_cache.hits);
    result->per_layer["exec.cache_misses"] =
        static_cast<double>(after.key_cache.misses);
    result->per_layer["exec.shed"] =
        static_cast<double>(after.total_shed() - before.total_shed());
    result->per_layer["core.detect_cell_us"] =
        DetectCellMicros(market, config.toy ? 8 : 64, reference, result);
    if (!tracer.WriteJsonLines(config.work_dir + "/spans.jsonl")) {
      result->notes.push_back("could not write spans.jsonl");
    }
    MeasureEscrowLayer(config, market.keys, result);
  } else {
    // Timed closed loop: one client, next batch after the previous drain.
    std::vector<double> batch_s;
    double measured = 0;
    for (size_t b = 0; measured < config.seconds || batch_s.size() < 1000;
         ++b) {
      BatchOutcome outcome =
          RunBatch(market, session, BatchRows(b, sizes.batch, pool_size),
                   reference, untraced);
      measured += outcome.seconds;
      batch_s.push_back(outcome.seconds);
      ++result->attempted;
      if (!outcome.ok) {
        ++result->failed;
        result->gate.Check("batch " + std::to_string(b) +
                               " admitted, drained and == reference",
                           false);
      }
    }
    const double cells =
        static_cast<double>(batch_s.size() * cells_per_batch);
    // Cells over the time spent draining them (see sell.cc).
    result->end_to_end["ops_per_s"] = cells / measured;
    result->report["cells_per_s"] = cells / measured;
    result->report["batches"] = static_cast<double>(batch_s.size());
    result->report["drain_p50_ms"] = Median(batch_s) * 1e3;
    result->report["drain_p99_ms"] = Quantile(batch_s, 0.99) * 1e3;
  }
  result->end_to_end["peak_rss_mb"] = PeakRssMb();
}

}  // namespace marketbench
