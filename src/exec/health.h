#ifndef FREQYWM_EXEC_HEALTH_H_
#define FREQYWM_EXEC_HEALTH_H_

#include <cstddef>
#include <cstdint>

#include "exec/admission.h"
#include "exec/prepared_key_cache.h"

namespace freqywm {

/// WAL / checkpoint gauges of a durable tenant registry (DESIGN.md §15).
/// Pure data, filled from `DurableRegistry::stats`; lives here (not in
/// analysis/) so `EngineHealthSnapshot` stays below the analysis layer in
/// the wmlint DAG. "Checkpoint age" is deliberately clock-free — records
/// and bytes logged since the last checkpoint — so health snapshots stay
/// deterministic under the repo's no-clocks rule.
struct DurabilityGauges {
  /// False when the tenant has no `durable_dir`; every other field is
  /// then zero.
  bool durable = false;

  /// Current WAL file size (magic + frames), and the unsynced window —
  /// what a crash right now could lose under group-commit.
  uint64_t wal_size_bytes = 0;
  uint64_t wal_unsynced_records = 0;
  uint64_t wal_unsynced_bytes = 0;

  /// Clock-free checkpoint age: records/bytes appended since the WAL was
  /// last rotated over a published snapshot.
  uint64_t wal_records_since_checkpoint = 0;
  uint64_t wal_bytes_since_checkpoint = 0;

  /// Auto-checkpoints published / failed over this registry's lifetime.
  /// Failures never fail the triggering `Register` (its record is
  /// already durable in the WAL) — they surface here and the checkpoint
  /// is retried at the next threshold crossing.
  uint64_t checkpoints_published = 0;
  uint64_t checkpoint_failures = 0;

  /// What the last `Open` recovered: WAL records replayed on top of the
  /// snapshot, duplicates skipped idempotently, and whether a torn tail
  /// was truncated.
  uint64_t records_replayed_at_open = 0;
  uint64_t duplicates_skipped_at_open = 0;
  bool torn_tail_truncated_at_open = false;

  /// Parent-directory fsync warnings from checkpoint saves
  /// (`FingerprintRegistry::SaveReport`).
  uint64_t parent_dir_fsync_warnings = 0;
};

/// Point-in-time health of one detection-engine instance (DESIGN.md §14):
/// the admission counters/gauges, the prepared-key cache counters and
/// the session queue depth — everything an operator (or the
/// `bench_overload` load generator) needs to see overload coming before
/// it becomes memory growth. Pure data; each sub-snapshot is internally
/// consistent (taken under its owner's lock) but the snapshot as a whole
/// is not one atomic cut across components.
struct EngineHealthSnapshot {
  /// Admit/shed counters and in-flight/pending gauges
  /// (`AdmissionController::stats`).
  AdmissionStats admission;

  /// Hit/miss/eviction counters and entry gauge
  /// (`PreparedKeyCache::stats`).
  PreparedKeyCacheStats key_cache;

  /// Suspects enqueued and not yet drained (`Session::pending_suspects`,
  /// summed over the instance's live sessions).
  size_t session_queue_depth = 0;

  /// Sessions currently open (tenant gauge; 0 when not tenant-scoped).
  size_t open_sessions = 0;

  /// WAL / checkpoint gauges (zeroed with `durable == false` when the
  /// tenant runs in-memory only).
  DurabilityGauges durability;

  /// Work units turned away, all shed reasons combined.
  uint64_t total_shed() const { return admission.total_shed(); }
};

}  // namespace freqywm

#endif  // FREQYWM_EXEC_HEALTH_H_
