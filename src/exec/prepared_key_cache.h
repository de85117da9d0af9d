#ifndef FREQYWM_EXEC_PREPARED_KEY_CACHE_H_
#define FREQYWM_EXEC_PREPARED_KEY_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "api/scheme.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"

namespace freqywm {

/// Counters of a `PreparedKeyCache` (monotonic since construction).
/// `hits + misses` equals the number of lookups (`Get` and
/// `TryGetOrPrepare` both count).
struct PreparedKeyCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  size_t size = 0;
};

/// A thread-safe, LRU-bounded cache of `PreparedKey` state shared across
/// detection runs (DESIGN.md §10).
///
/// A `BatchDetector::Session` prepares each key once for all its chunks
/// (the key is parsed and its moduli derived once per session); this
/// cache makes preparation cheap across a key's *lifetime*: the
/// marketplace front end traces every surfaced suspect batch against the
/// same escrowed buyer keys, and with a shared cache each key pays
/// `WatermarkScheme::Prepare` once, not once per batch.
/// `BatchDetector::Session`, `FingerprintRegistry::TraceSuspects` and
/// any future tenant can share one instance.
///
/// Keying: entries are indexed by `Fingerprint(key)` — a SHA-256 over the
/// scheme tag and payload with length framing, so distinct (scheme,
/// payload) pairs never collide by concatenation. Correctness rests on the
/// `Prepare` contract (api/scheme.h): prepared state is a pure function of
/// the `SchemeKey` — never of the preparing scheme instance's embed
/// configuration — and is immutable and thread-safe after construction.
/// Every scheme in the factory satisfies this (Prepare only parses the
/// payload).
///
/// Eviction: strict LRU over a fixed entry capacity. Entries are handed
/// out as `shared_ptr<const PreparedKey>`, so eviction never invalidates a
/// borrower — an evicted entry lives until its last user drops it, and a
/// session that resolved its keys up front is immune to later evictions.
/// Cache state (cold, warm, mid-eviction) never changes detection output,
/// only who pays the preparation cost (enforced by
/// `tests/exec/batch_session_test.cc`).
///
/// Concurrency: lookups and LRU maintenance run under one mutex;
/// `Prepare` itself runs *outside* the lock, so a slow preparation never
/// blocks concurrent hits. Two threads missing the same key concurrently
/// may both prepare it; the first insert wins and both return the winning
/// entry (TSan-covered by `tests/exec/prepared_key_cache_test.cc`).
class PreparedKeyCache {
 public:
  static constexpr size_t kDefaultCapacity = 1024;

  /// A cache holding at most `capacity` prepared keys (floor of 1).
  explicit PreparedKeyCache(size_t capacity = kDefaultCapacity);

  PreparedKeyCache(const PreparedKeyCache&) = delete;
  PreparedKeyCache& operator=(const PreparedKeyCache&) = delete;

  /// The cache identity of `key`: SHA-256 over
  /// `len(scheme) || scheme || payload` (length framing keeps
  /// ("ab", "c") and ("a", "bc") distinct). Raw 32-byte digest.
  static std::string Fingerprint(const SchemeKey& key);

  /// The cached entry for `key`, refreshing its recency, or nullptr on a
  /// miss. Never prepares.
  std::shared_ptr<const PreparedKey> Get(const SchemeKey& key);

  /// The cached entry for `key`, preparing and inserting it via
  /// `scheme.Prepare(key)` on a miss. Preparation runs outside the cache
  /// lock; on a concurrent double-miss the first inserted entry wins and
  /// is returned to both callers. Preparation failures (DESIGN.md §13;
  /// only injected, at the `prepared_key_cache/prepare` fault site)
  /// surface as a typed error instead of a cache entry. A failed
  /// preparation inserts NOTHING — no tombstone, no negative entry — so
  /// a later call for the same key retries from scratch and a transient
  /// failure never poisons the key for other tenants (regression-tested
  /// under TSan by tests/exec/fault_injection_test.cc). On success the
  /// returned entry is never null.
  Result<std::shared_ptr<const PreparedKey>> TryGetOrPrepare(
      const WatermarkScheme& scheme, const SchemeKey& key);

  size_t capacity() const { return capacity_; }
  size_t size() const;
  PreparedKeyCacheStats stats() const;

 private:
  /// LRU order: front = most recently used. The map indexes into the list.
  using Entry = std::pair<std::string, std::shared_ptr<const PreparedKey>>;

  /// Looks up `fingerprint` and, on a hit, counts it and refreshes its
  /// recency; returns nullptr on a miss (counted by the caller, which
  /// knows whether the miss leads to an insert or a prepared retry).
  std::shared_ptr<const PreparedKey> HitLocked(const std::string& fingerprint)
      REQUIRES(mutex_);

  /// Evicts LRU entries until `lru_.size() <= capacity_`.
  void EvictExcessLocked() REQUIRES(mutex_);

  mutable Mutex mutex_;
  std::list<Entry> lru_ GUARDED_BY(mutex_);
  std::unordered_map<std::string, std::list<Entry>::iterator> index_
      GUARDED_BY(mutex_);
  const size_t capacity_;
  uint64_t hits_ GUARDED_BY(mutex_) = 0;
  uint64_t misses_ GUARDED_BY(mutex_) = 0;
  uint64_t evictions_ GUARDED_BY(mutex_) = 0;
};

}  // namespace freqywm

#endif  // FREQYWM_EXEC_PREPARED_KEY_CACHE_H_
