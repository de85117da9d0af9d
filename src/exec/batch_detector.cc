#include "exec/batch_detector.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>

#include "api/factory.h"
#include "common/mutex.h"
#include "exec/fault_injection.h"

namespace freqywm {

BatchDetector::Session::Session(BatchDetectOptions options,
                                std::vector<SchemeKey> keys)
    : options_(std::move(options)), keys_(std::move(keys)) {
  if (options_.num_threads > 1) {
    // num_threads is the *total* parallelism; the submitting thread helps
    // inside ParallelFor, so the pool needs one worker fewer.
    owned_pool_ = std::make_unique<ThreadPool>(options_.num_threads - 1);
    pool_ = owned_pool_.get();
  }
  PrepareKeys();
}

BatchDetector::Session::Session(BatchDetectOptions options,
                                std::vector<SchemeKey> keys,
                                ThreadPool* borrowed_pool)
    : options_(std::move(options)), keys_(std::move(keys)),
      pool_(borrowed_pool) {
  PrepareKeys();
}

void BatchDetector::Session::PrepareKeys() {
  // One scheme per distinct tag (`SchemeCache`), needed only here: the
  // prepared keys are the detectors a drain calls. Per-key detection
  // settings, prepared keys and dense id maps are resolved once per
  // session, not per chunk, and stay deterministic regardless of
  // scheduling. Prepared keys go through the shared cache when one is
  // configured, so keys already prepared by an earlier session (or
  // another tenant) cost a lookup.
  SchemeCache schemes;
  key_options_.assign(keys_.size(), DetectOptions{});
  prepared_.assign(keys_.size(), nullptr);
  key_status_.assign(keys_.size(), Status::OK());
  dense_ids_.assign(keys_.size(), {});
  for (size_t j = 0; j < keys_.size(); ++j) {
    const WatermarkScheme* scheme = schemes.Get(keys_[j].scheme);
    if (scheme == nullptr) {
      // Unregistered tag → rejected cells, now with the reason recorded
      // per column instead of assumed.
      key_status_[j] = Status::NotFound("scheme '" + keys_[j].scheme +
                                        "' not registered");
      continue;
    }
    // A preparation failure — injected here, or surfaced by the cache —
    // poisons only this column (DESIGN.md §13): prepared_[j] stays null,
    // the typed status is recorded, and every other key proceeds.
    Status prep = FREQYWM_FAULT_STATUS_KEYED("session/prepare",
                                             static_cast<uint64_t>(j));
    if (prep.ok() && options_.key_cache != nullptr) {
      Result<std::shared_ptr<const PreparedKey>> entry =
          options_.key_cache->TryGetOrPrepare(*scheme, keys_[j]);
      if (entry.ok()) {
        prepared_[j] = std::move(entry).value();
      } else {
        prep = entry.status();
      }
    } else if (prep.ok()) {
      prepared_[j] = scheme->Prepare(keys_[j]);
    }
    if (!prep.ok()) {
      key_status_[j] = std::move(prep);
      continue;
    }
    key_options_[j] = options_.detect_options.value_or(
        prepared_[j]->recommended_options());

    // Union the key's vocabulary into the session interner. Dense ids are
    // uint32_t; a union beyond 2^32 distinct tokens is far past any
    // realistic registry (it would not fit in memory), but degrade to the
    // histogram path rather than overflow if it ever happens.
    const std::vector<Token>* vocab = prepared_[j]->TokenVocabulary();
    if (vocab == nullptr || vocab->empty()) continue;
    if (vocab_.size() + vocab->size() >
        std::numeric_limits<uint32_t>::max()) {
      continue;
    }
    dense_ids_[j].reserve(vocab->size());
    for (const Token& token : *vocab) {
      auto [it, inserted] =
          vocab_index_.emplace(token, static_cast<uint32_t>(vocab_.size()));
      if (inserted) vocab_.push_back(token);
      dense_ids_[j].push_back(it->second);
    }
  }
}

void BatchDetector::Session::ScatterSuspect(const Histogram& suspect,
                                            uint64_t* counts,
                                            uint8_t* present) const {
  // Either direction fills the same arrays — the intersection of the
  // suspect's tokens with the union vocabulary — so the choice is purely
  // a cost call: one hash probe per token on the smaller side.
  if (suspect.num_tokens() < vocab_.size()) {
    for (const HistogramEntry& entry : suspect.entries()) {
      auto it = vocab_index_.find(entry.token);
      if (it == vocab_index_.end()) continue;
      counts[it->second] = entry.count;
      present[it->second] = 1;
    }
  } else {
    for (size_t id = 0; id < vocab_.size(); ++id) {
      auto count = suspect.CountOf(vocab_[id]);
      if (!count) continue;
      counts[id] = *count;
      present[id] = 1;
    }
  }
}

void BatchDetector::Session::AddSuspects(std::vector<Histogram> suspects) {
  MutexLock lock(pending_mutex_);
  for (Histogram& suspect : suspects) {
    pending_.push_back(std::move(suspect));
  }
}

size_t BatchDetector::Session::pending_suspects() const {
  MutexLock lock(pending_mutex_);
  return pending_.size();
}

SessionDrainResult BatchDetector::Session::DrainChecked(
    const InterruptContext& interrupt) {
  // Claim the queue atomically, then detect outside the lock: producers
  // that enqueue while the matrix evaluates land in the next drain instead
  // of blocking on it.
  std::vector<Histogram> batch;
  {
    MutexLock lock(pending_mutex_);
    batch.swap(pending_);
  }
  return DetectChecked(batch, interrupt);
}

namespace {

/// Largest dense block (DESIGN.md §18): up to 16 vocabulary keys × 16
/// suspects, evaluated key-major so one key's prepared table stays hot
/// across the block's suspects.
constexpr size_t kMaxBlockKeys = 16;
constexpr size_t kMaxBlockSuspects = 16;
/// Blocks per pool participant the plan aims for, so the claims can still
/// balance the load on a small matrix.
constexpr size_t kBlocksPerParticipant = 4;

/// Consecutive keys that share blocks: each block covers the whole run
/// for `tile` suspects. Blocks are numbered run by run, so the run's
/// blocks are `first_block` up to the next run's `first_block`.
struct KeyRun {
  size_t key_begin = 0;
  size_t key_end = 0;
  size_t tile = 1;
  size_t first_block = 0;
};

size_t CeilDiv(size_t a, size_t b) { return (a + b - 1) / b; }

/// Cuts the |suspects| × |keys| matrix into blocks (DESIGN.md §18) and
/// returns the runs; `*num_blocks` gets the block count. A key that
/// scans the whole suspect histogram (`histogram_key[j]`, up to about a
/// millisecond a cell) gets one cell per block, so a block never holds
/// more than one such cell. Vocabulary keys (about a microsecond a cell)
/// share blocks of up to 16 keys × 16 suspects, halved, larger side
/// first, until there are `kBlocksPerParticipant` blocks per participant
/// or a block is one cell.
std::vector<KeyRun> PlanBlocks(const std::vector<uint8_t>& histogram_key,
                               size_t num_suspects, size_t participants,
                               size_t* num_blocks) {
  const size_t num_keys = histogram_key.size();
  const size_t histogram_keys =
      static_cast<size_t>(std::count(histogram_key.begin(),
                                     histogram_key.end(), uint8_t{1}));
  const size_t vocabulary_keys = num_keys - histogram_keys;
  size_t keys_per_block =
      std::clamp<size_t>(vocabulary_keys, 1, kMaxBlockKeys);
  size_t tile = std::min(num_suspects, kMaxBlockSuspects);
  const size_t wanted =
      participants > 1 ? kBlocksPerParticipant * participants : 0;
  while (CeilDiv(vocabulary_keys, keys_per_block) *
                     CeilDiv(num_suspects, tile) +
                 histogram_keys * num_suspects <
             wanted &&
         (keys_per_block > 1 || tile > 1)) {
    if (tile >= keys_per_block) {
      tile = CeilDiv(tile, 2);
    } else {
      keys_per_block = CeilDiv(keys_per_block, 2);
    }
  }

  std::vector<KeyRun> runs;
  size_t blocks = 0;
  for (size_t j = 0; j < num_keys;) {
    KeyRun run{j, j + 1, 1, blocks};
    if (!histogram_key[j]) {
      while (run.key_end < num_keys && run.key_end - j < keys_per_block &&
             !histogram_key[run.key_end]) {
        ++run.key_end;
      }
      run.tile = tile;
    }
    blocks += CeilDiv(num_suspects, run.tile);
    j = run.key_end;
    runs.push_back(run);
  }
  *num_blocks = blocks;
  return runs;
}

/// Runs `body` for every index below `n` on `pool`, or inline without
/// one, polling the interrupt (and, on the pool, the `thread_pool/shard`
/// fault site) before every index; returns the first error.
Status ForEach(ThreadPool* pool, size_t n, const InterruptContext& interrupt,
               const std::function<Status(size_t)>& body) {
  if (pool != nullptr) return pool->ParallelForChecked(n, interrupt, body);
  for (size_t index = 0; index < n; ++index) {
    FREQYWM_RETURN_NOT_OK(interrupt.Check());
    FREQYWM_RETURN_NOT_OK(body(index));
  }
  return Status::OK();
}

}  // namespace

SessionDrainResult BatchDetector::Session::DetectChecked(
    const std::vector<Histogram>& suspects,
    const InterruptContext& interrupt) const {
  SessionDrainResult out;
  out.key_status = key_status_;
  out.verdicts.assign(suspects.size(),
                      std::vector<DetectResult>(keys_.size()));
  out.evaluated.assign(suspects.size() * keys_.size(), 0);
  if (suspects.empty() || keys_.empty()) return out;
  out.status = interrupt.Check();
  if (!out.status.ok()) return out;

  ThreadPool* pool =
      pool_ != nullptr && pool_->num_threads() > 0 ? pool_ : nullptr;

  // Phase 1 — scatter: each suspect's counts land in its row of one flat
  // |suspects| × |vocabulary| buffer, built once for *all* keys (suspects
  // are independent, so the phase shards by suspect). Skipped entirely
  // when no key exposes a vocabulary. An interruption here yields no
  // evaluated cells: the rows are an all-or-nothing precondition of the
  // matrix phase.
  const size_t width = vocab_.size();
  std::vector<uint64_t> counts(suspects.size() * width, 0);
  std::vector<uint8_t> present(suspects.size() * width, 0);
  if (width > 0) {
    out.status = ForEach(pool, suspects.size(), interrupt, [&](size_t i) {
      ScatterSuspect(suspects[i], counts.data() + i * width,
                     present.data() + i * width);
      return Status::OK();
    });
    if (!out.status.ok()) return out;
  }

  // Phase 2 — the matrix, one block per claim (PlanBlocks), with per-cell
  // isolation (DESIGN.md §13): a failing cell records a typed error under
  // `errors_mutex` and the block goes on, so one bad cell never aborts the
  // drain; only a cancellation/deadline (polled per block) stops it.
  // Vocabulary keys read counts by index (zero hash probes per cell);
  // whole-histogram schemes keep the prepared histogram path. Poisoned
  // columns cost nothing, so they ride in vocabulary blocks. Each cell
  // depends only on (suspect, key, options), so any schedule yields
  // identical results.
  const size_t num_keys = keys_.size();
  std::vector<uint8_t> histogram_key(num_keys, 0);
  for (size_t j = 0; j < num_keys; ++j) {
    histogram_key[j] = key_status_[j].ok() && dense_ids_[j].empty();
  }
  size_t num_blocks = 0;
  const std::vector<KeyRun> runs =
      PlanBlocks(histogram_key, suspects.size(),
                 pool != nullptr ? pool->num_threads() + 1 : 1, &num_blocks);

  Mutex errors_mutex;
  auto detect_block = [&](size_t block) {
    const KeyRun& run =
        *(std::upper_bound(runs.begin(), runs.end(), block,
                           [](size_t b, const KeyRun& r) {
                             return b < r.first_block;
                           }) -
          1);
    const size_t i_begin = (block - run.first_block) * run.tile;
    const size_t i_end = std::min(i_begin + run.tile, suspects.size());
    for (size_t j = run.key_begin; j < run.key_end; ++j) {
      if (!key_status_[j].ok()) continue;  // poisoned column
      const PreparedKey& prepared = *prepared_[j];
      for (size_t i = i_begin; i < i_end; ++i) {
        const size_t c = i * num_keys + j;
        Status cell = FREQYWM_FAULT_STATUS_KEYED("session/detect_cell",
                                                 static_cast<uint64_t>(c));
        if (!cell.ok()) {
          MutexLock lock(errors_mutex);
          out.cell_errors.push_back(SessionCellError{i, j, std::move(cell)});
          continue;
        }
        if (!dense_ids_[j].empty()) {
          DenseSuspectCounts dense{counts.data() + i * width,
                                   present.data() + i * width};
          out.verdicts[i][j] =
              prepared.Detect(dense, dense_ids_[j].data(), key_options_[j]);
        } else {
          out.verdicts[i][j] = prepared.Detect(suspects[i], key_options_[j]);
        }
        out.evaluated[c] = 1;
      }
    }
    return Status::OK();
  };
  out.status = ForEach(pool, num_blocks, interrupt, detect_block);

  // Deterministic error report order regardless of which thread recorded
  // which cell first.
  std::sort(out.cell_errors.begin(), out.cell_errors.end(),
            [](const SessionCellError& a, const SessionCellError& b) {
              return a.suspect != b.suspect ? a.suspect < b.suspect
                                            : a.key < b.key;
            });
  return out;
}

}  // namespace freqywm
