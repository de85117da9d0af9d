#ifndef FREQYWM_ANALYSIS_TENANT_H_
#define FREQYWM_ANALYSIS_TENANT_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/durable_registry.h"
#include "analysis/registry.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "data/histogram.h"
#include "exec/admission.h"
#include "exec/batch_detector.h"
#include "exec/cancellation.h"
#include "exec/health.h"
#include "exec/prepared_key_cache.h"

namespace freqywm {

/// Resource quotas of one tenant (DESIGN.md §14). Every limit defaults
/// to 0 = "unlimited", so a default-constructed tenant behaves exactly
/// like the pre-tenancy engine — isolation is opt-in, and quotas never
/// change what admitted work computes, only whether work is admitted.
struct TenantQuotas {
  /// Maximum fingerprint keys the tenant may escrow. 0 = unlimited.
  size_t max_escrowed_keys = 0;

  /// Capacity of the tenant's private `PreparedKeyCache` slice. 0 →
  /// `PreparedKeyCache::kDefaultCapacity`. Tenants never share a cache:
  /// one tenant churning keys cannot evict another's warm entries.
  size_t max_cache_entries = 0;

  /// Maximum concurrently open `TenantSession`s. 0 = unlimited.
  size_t max_concurrent_sessions = 0;

  /// Maximum suspects admitted (submitted, not yet drained) across all
  /// of the tenant's sessions — `AdmissionOptions::max_in_flight`. Every
  /// queued suspect holds one of these units, so this is also the bound
  /// on the tenant's session queues. 0 = unlimited.
  size_t max_in_flight_suspects = 0;

  /// Suspects that may wait inside blocking `Submit` calls for in-flight
  /// capacity (the waiting room) — `AdmissionOptions::max_pending`. It
  /// does not bound the session queues. 0 = unlimited.
  size_t max_pending_suspects = 0;

  /// Token-bucket rate limit in suspects per second, with burst
  /// capacity — `AdmissionOptions::{rate_per_unit_time, burst}`. 0 =
  /// unlimited rate.
  double rate_per_unit_time = 0;
  double burst = 0;

  /// Injectable clock of the tenant's admission controller — the
  /// testing seam (see `AdmissionOptions::clock_nanos`). Null → the real
  /// monotonic clock.
  std::function<int64_t()> clock_nanos;

  /// Opt-in durability (DESIGN.md §15): when non-empty, the tenant's
  /// escrow registry is a `DurableRegistry` rooted at this existing
  /// directory — every acknowledged `Escrow` is WAL-logged before the
  /// caller hears OK, and a reopened tenant recovers snapshot + replay.
  /// Empty (the default) keeps the pre-durability in-memory registry.
  /// Construct durable tenants through `TenantContext::Open` so a
  /// failed recovery surfaces at open time instead of on first escrow.
  std::string durable_dir;

  /// WAL flush policy and auto-checkpoint threshold of the durable
  /// registry; ignored when `durable_dir` is empty.
  WalSyncPolicy durable_sync_policy = WalSyncPolicy::kEveryRecord;
  uint64_t durable_checkpoint_threshold_bytes = 4 << 20;
};

class TenantContext;

/// One RAII detection session scoped to a tenant (DESIGN.md §14): a
/// `BatchDetector::Session` over the tenant's escrowed keys, fronted by
/// the tenant's admission controller. `Submit` admits suspects (blocking
/// with backpressure, honoring the caller's interrupt) before they enter
/// the session queue; `TrySubmit` is the non-blocking shed-mode variant.
/// Admission is the only bound on the queue: every queued suspect holds
/// one in-flight unit. Draining returns admitted units to the in-flight
/// semaphore, one per drained row; destruction returns whatever is still
/// outstanding and frees the tenant's session slot.
///
/// Determinism: a suspect that is admitted produces verdicts
/// byte-identical to the same suspect through an unthrottled session at
/// any thread count — admission changes membership of the drained set,
/// never its bytes (enforced by tests/analysis/tenant_test.cc).
///
/// Concurrency: `Submit`/`TrySubmit` are thread-safe (many producers);
/// `DrainChecked` is single-caller, like `Session::DrainChecked`.
class TenantSession {
 public:
  ~TenantSession();
  TenantSession(const TenantSession&) = delete;
  TenantSession& operator=(const TenantSession&) = delete;

  /// Blocking submission: admits `suspects.size()` units through the
  /// tenant's admission controller (rate + in-flight + waiting room,
  /// deadline-aware), then enqueues them in the session. Typed outcomes:
  /// `kResourceExhausted` sheds, `kCancelled` / the interrupt status when
  /// `interrupt` fires while waiting. All-or-nothing: on any non-OK
  /// return NOTHING was enqueued and no units stay leased.
  [[nodiscard]] Status Submit(std::vector<Histogram> suspects,
                              const InterruptContext& interrupt);

  /// Non-blocking submission: sheds immediately (typed
  /// `kResourceExhausted`) instead of waiting for tokens or capacity.
  /// All-or-nothing like `Submit`.
  [[nodiscard]] Status TrySubmit(std::vector<Histogram> suspects,
                                 const Deadline& deadline = {});

  /// Failure-aware drain of everything admitted so far (the
  /// `Session::DrainChecked` contract). Each drained row returns one
  /// admitted unit to the tenant's in-flight semaphore.
  SessionDrainResult DrainChecked(const InterruptContext& interrupt);

  /// Suspects admitted and not yet drained.
  size_t pending_suspects() const;

  /// Per-key preparation outcome of the underlying session (poisoned
  /// columns: unregistered scheme tags and prepare failures).
  const std::vector<Status>& key_statuses() const {
    return session_->key_statuses();
  }

  const std::vector<SchemeKey>& keys() const { return session_->keys(); }

 private:
  friend class TenantContext;
  TenantSession(TenantContext* tenant,
                std::unique_ptr<BatchDetector::Session> session);

  /// Enqueues admitted `suspects` and files the `permit` that holds
  /// their units.
  void Enqueue(AdmissionController::Permit permit,
               std::vector<Histogram> suspects);

  /// Returns `rows` admitted units to the in-flight semaphore, oldest
  /// permits first.
  void ReleaseUnits(size_t rows);

  TenantContext* const tenant_;
  const std::unique_ptr<BatchDetector::Session> session_;

  /// Admission permits for submitted-but-undrained suspects, oldest
  /// first; drains release from the front (FIFO, matching the session
  /// queue's arrival order).
  mutable Mutex mu_;
  std::deque<AdmissionController::Permit> permits_ GUARDED_BY(mu_);
};

/// One tenant of the detection engine (DESIGN.md §14): owns the tenant's
/// `FingerprintRegistry`, a private `PreparedKeyCache` slice and an
/// `AdmissionController`, all sized by `TenantQuotas`. The isolation
/// contract: a tenant saturating its own quotas — or holding poisoned
/// keys — cannot change another tenant's verdicts, cache contents or
/// latency class, because nothing here is shared across `TenantContext`
/// instances (enforced by tests/analysis/tenant_test.cc).
///
/// Thread-safe throughout; `Escrow` and `OpenSession` may race with
/// running sessions (a session binds the key set at open time — keys
/// escrowed later join the next session, the `Session` keys-fixed-at-
/// construction contract).
class TenantContext {
 public:
  explicit TenantContext(std::string tenant_id, TenantQuotas quotas = {});

  /// Factory for durable tenants: constructs the context AND surfaces a
  /// failed durable-registry recovery (damaged snapshot/WAL, unreadable
  /// directory) as this call's error instead of deferring it to the
  /// first `Escrow`. Works for in-memory tenants too (never fails
  /// there), so callers can use one construction path throughout.
  [[nodiscard]] static Result<std::unique_ptr<TenantContext>> Open(
      std::string tenant_id, TenantQuotas quotas = {});

  TenantContext(const TenantContext&) = delete;
  TenantContext& operator=(const TenantContext&) = delete;

  /// Escrows one buyer fingerprint into the tenant's registry. Typed
  /// failures: `kResourceExhausted` when `max_escrowed_keys` is reached
  /// (the quota fault site `tenant/quota` injects here), plus whatever
  /// `FingerprintRegistry::Register` rejects. Durable tenants
  /// additionally WAL-log the record before acknowledging — a non-OK
  /// return means NOT escrowed (see `DurableRegistry::Register` for the
  /// failed-fsync window) — and report the recovery error here when the
  /// context was constructed directly despite a broken `durable_dir`.
  [[nodiscard]] Status Escrow(const std::string& buyer_id, SchemeKey key);

  /// Opens a detection session over every key escrowed so far, fronted
  /// by this tenant's admission controller and cache.
  /// `kResourceExhausted` when `max_concurrent_sessions` sessions are
  /// already open. `num_threads` follows `BatchDetectOptions`.
  Result<std::unique_ptr<TenantSession>> OpenSession(size_t num_threads = 1);

  /// Traces suspects through the tenant's registry with the tenant's
  /// cache (`FingerprintRegistry::TraceSuspects`, on `num_threads`
  /// threads) — one bounded call, un-throttled: admission applies to
  /// sessions only.
  [[nodiscard]] Result<std::vector<std::vector<TraceMatch>>> TraceSuspects(
      const std::vector<Histogram>& suspects, size_t num_threads = 1) const;

  /// Point-in-time health of this tenant's slice of the engine:
  /// admission counters, cache counters, queue depth summed over open
  /// sessions, open-session gauge.
  EngineHealthSnapshot Health() const;

  const std::string& tenant_id() const { return tenant_id_; }
  const TenantQuotas& quotas() const { return quotas_; }
  size_t escrowed_keys() const;
  size_t open_sessions() const;

  const std::shared_ptr<PreparedKeyCache>& key_cache() const {
    return key_cache_;
  }
  AdmissionController& admission() { return *admission_; }

  /// The tenant's durable registry, or null for in-memory tenants —
  /// for recovery stats (`open_stats`), explicit `Checkpoint`/`Sync`,
  /// and tests. Internally synchronized.
  DurableRegistry* durable_registry() const { return durable_.get(); }

 private:
  friend class TenantSession;

  /// Snapshot of the registry for reads (trace, session keys) — the
  /// durable registry when present, else a copy of `registry_`.
  FingerprintRegistry RegistrySnapshot() const;

  const std::string tenant_id_;
  const TenantQuotas quotas_;
  const std::shared_ptr<PreparedKeyCache> key_cache_;
  const std::unique_ptr<AdmissionController> admission_;
  /// Set in the constructor body, immutable after; internally
  /// synchronized, so calls on it never need `mu_` (lock order stays
  /// `mu_` → DurableRegistry's mutex on the escrow path, acyclic).
  std::unique_ptr<DurableRegistry> durable_;
  /// Why `durable_` is null despite a non-empty `durable_dir` (direct
  /// construction only — `Open` surfaces this instead). OK otherwise.
  Status durable_open_error_;

  mutable Mutex mu_;
  FingerprintRegistry registry_ GUARDED_BY(mu_);
  size_t open_sessions_ GUARDED_BY(mu_) = 0;
  /// Live sessions, for summing queue depth into `Health` — raw
  /// borrows, erased by each session's destructor.
  std::vector<const TenantSession*> live_sessions_ GUARDED_BY(mu_);
};

}  // namespace freqywm

#endif  // FREQYWM_ANALYSIS_TENANT_H_
