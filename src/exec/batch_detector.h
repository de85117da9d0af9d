#ifndef FREQYWM_EXEC_BATCH_DETECTOR_H_
#define FREQYWM_EXEC_BATCH_DETECTOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "api/scheme.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/detect.h"
#include "core/options.h"
#include "data/histogram.h"
#include "exec/cancellation.h"
#include "exec/prepared_key_cache.h"
#include "exec/thread_pool.h"

namespace freqywm {

/// One failed matrix cell in a `SessionDrainResult`: detection of key
/// column `key` on suspect row `suspect` did not run to completion.
struct SessionCellError {
  size_t suspect = 0;
  size_t key = 0;
  Status status;
};

/// The result of a session drain or detection (DESIGN.md §13). The
/// verdict matrix always has full |suspects| × |keys| shape; the
/// companion fields say which cells actually hold a detection:
///
///   - `key_status[j]` is non-OK when column `j` is poisoned — its key
///     failed `Prepare` (or its scheme tag is unregistered) — and every
///     cell in that column is unevaluated, default-rejected;
///   - `cell_errors` lists individually failed cells (sorted by
///     (suspect, key)), each with its typed status — one bad cell never
///     contaminates its row, column, or the drain;
///   - `evaluated[i * keys + j]` is 1 iff `verdicts[i][j]` is a real
///     detection result;
///   - `status` is the drain-level outcome: OK for a completed drain
///     (even one with poisoned columns or failed cells), or
///     `kCancelled`/`kDeadlineExceeded` when the drain was interrupted —
///     then the evaluated mask marks the partial prefix that finished
///     before the interruption.
struct SessionDrainResult {
  std::vector<std::vector<DetectResult>> verdicts;
  std::vector<Status> key_status;
  std::vector<SessionCellError> cell_errors;
  std::vector<uint8_t> evaluated;
  Status status;
};

/// Configuration of a `BatchDetector::Session`.
struct BatchDetectOptions {
  /// Total parallelism (worker threads; the submitting thread helps).
  /// 1 → the serial reference path, bit-identical to a hand-written
  /// nested `Detect` loop.
  size_t num_threads = 1;

  /// Settings for every cell. Unset (default), each key is detected under
  /// its prepared key's `recommended_options()`.
  std::optional<DetectOptions> detect_options;

  /// Optional shared `PreparedKey` cache (DESIGN.md §10). When set,
  /// sessions resolve their keys through it, so preparation is paid once
  /// per key *lifetime* — across batches, sessions and tenants — not once
  /// per session. When null, keys are prepared privately. Cache state
  /// (cold, warm, evicted) never changes detection output.
  std::shared_ptr<PreparedKeyCache> key_cache;
};

/// The batch detection engine (DESIGN.md §7, §10): evaluates the full
/// |suspects| × |keys| matrix of `WatermarkScheme::Detect` calls — the
/// marketplace workload where one owner traces many suspect copies against
/// many escrowed keys. `BatchDetector` is only the scope of `Session`,
/// the one way in.
///
/// Each key is `Prepare`d once up front — through the shared `key_cache`
/// when one is configured — and every cell calls its column's
/// `PreparedKey::Detect`, which is const and stateless for every scheme
/// in the factory, so cells run across threads. Keys exposing a
/// `TokenVocabulary` run through the dense count gather: the union
/// vocabulary is interned into dense ids, each suspect histogram is
/// scattered into a flat count vector once, and every matrix cell then
/// reads counts by index — zero hash probes per cell (DESIGN.md §10).
/// Keys whose scheme tag is not registered poison their column with
/// `kNotFound` and yield default (rejected) verdicts, which
/// `FingerprintRegistry::TraceSuspects` skips.
///
/// Determinism contract: `verdicts[i][j]` depends only on
/// `(suspects[i], keys[j], options)` — never on thread count, schedule,
/// chunking or cache state — so every configuration is element-wise
/// identical to the serial path (enforced for every registered scheme by
/// `tests/exec/batch_detector_test.cc` and
/// `tests/exec/batch_session_test.cc`).
class BatchDetector {
 public:
  /// A streaming detection session: the key column is fixed once, and
  /// suspect chunks arrive incrementally — the shape of the ROADMAP's
  /// batch-detection service, where escrowed buyer keys are long-lived and
  /// surfaced suspect copies trickle in. The session holds the expensive
  /// state across chunks: the thread pool, the prepared keys (resolved
  /// through the shared `PreparedKeyCache` when configured, so a later
  /// session over the same keys starts warm), and the dense-gather
  /// interner with the per-key dense id maps.
  ///
  /// `DrainChecked` output is element-wise identical to one
  /// `DetectChecked` over the concatenated chunks, for any chunking,
  /// thread count and cache state.
  ///
  /// Concurrency: the enqueue side is thread-safe — `AddSuspects` may be
  /// called from many producer threads (the shape of the ROADMAP's
  /// detection service, where request handlers enqueue while a drainer
  /// detects); the pending queue is guarded by `pending_mutex_`
  /// (machine-checked by the CI thread-safety job). Arrival order under
  /// concurrent producers is whatever order the enqueues serialize in —
  /// per-producer order is preserved. The queue itself is unbounded: a
  /// `TenantSession` bounds it by admitting every suspect through its
  /// tenant's `AdmissionController` first (DESIGN.md §14).
  /// `DrainChecked` remains single-caller: one drainer at a time (the
  /// parallelism lives inside the drain). Prepared keys resolved at
  /// construction are pinned for the session's lifetime — cache
  /// evictions never invalidate them.
  class Session {
   public:
    /// Creates a session over `keys`, owning a thread pool when
    /// `options.num_threads > 1` (the pool persists across chunks).
    Session(BatchDetectOptions options, std::vector<SchemeKey> keys);

    /// Like above, but borrows `pool` (may be null → serial) instead of
    /// creating one. The pool must outlive the session.
    Session(BatchDetectOptions options, std::vector<SchemeKey> keys,
            ThreadPool* borrowed_pool);

    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    /// Enqueues suspects for the next `DrainChecked`, preserving arrival
    /// order. Thread-safe: producers may enqueue concurrently (and while
    /// a drain is running; such suspects land in the *next* drain).
    void AddSuspects(std::vector<Histogram> suspects);

    /// Suspects enqueued since the last drain. Thread-safe.
    size_t pending_suspects() const;

    /// The drain (DESIGN.md §13): claims the whole pending queue and
    /// detects it against the key column, honoring `interrupt` at every
    /// block boundary (one whole-histogram cell, or at most 16
    /// vocabulary keys × 16 suspects, DESIGN.md §18) and isolating
    /// per-key / per-cell failures instead of assuming them away. Row
    /// order equals arrival order. Claimed suspects are consumed even
    /// when the drain is interrupted — the caller inspects `evaluated` to
    /// see which cells completed.
    SessionDrainResult DrainChecked(const InterruptContext& interrupt);

    /// One-shot detection of `suspects` against the key column, without
    /// touching the pending queue; `DrainChecked` is implemented on top
    /// of this.
    SessionDrainResult DetectChecked(const std::vector<Histogram>& suspects,
                                     const InterruptContext& interrupt) const;

    /// Per-key preparation outcome, fixed at construction: `[j]` is OK
    /// when column `j` is usable, `kNotFound` for an unregistered scheme
    /// tag, or the typed `Prepare` failure that poisoned the column.
    const std::vector<Status>& key_statuses() const { return key_status_; }

    const std::vector<SchemeKey>& keys() const { return keys_; }

    /// Size of the interned union vocabulary (0 when no key exposes one).
    size_t vocabulary_size() const { return vocab_.size(); }

   private:
    void PrepareKeys();
    /// Scatters `suspect` into flat per-vocabulary-id arrays, probing
    /// whichever side (suspect histogram vs union vocabulary) is smaller;
    /// both directions fill identical arrays.
    void ScatterSuspect(const Histogram& suspect, uint64_t* counts,
                        uint8_t* present) const;

    BatchDetectOptions options_;
    std::vector<SchemeKey> keys_;
    std::vector<DetectOptions> key_options_;
    std::vector<std::shared_ptr<const PreparedKey>> prepared_;
    std::vector<Status> key_status_;

    /// Dense-gather state: the union of the keys' vocabularies interned
    /// into ids `[0, vocab_.size())`, and per key the map from its
    /// vocabulary index to the dense id (empty → histogram-path key).
    std::vector<Token> vocab_;
    std::unordered_map<Token, uint32_t> vocab_index_;
    std::vector<std::vector<uint32_t>> dense_ids_;

    /// Producer-side state: the only mutable-after-construction session
    /// state, guarded so request handlers can enqueue concurrently.
    mutable Mutex pending_mutex_;
    std::vector<Histogram> pending_ GUARDED_BY(pending_mutex_);

    std::unique_ptr<ThreadPool> owned_pool_;
    ThreadPool* pool_ = nullptr;  // owned or borrowed; null → serial
  };
};

}  // namespace freqywm

#endif  // FREQYWM_EXEC_BATCH_DETECTOR_H_
