#include "exec/prepared_key_cache.h"

#include <algorithm>

#include "common/mutex.h"
#include "crypto/sha256.h"
#include "exec/fault_injection.h"

namespace freqywm {

PreparedKeyCache::PreparedKeyCache(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity)) {}

std::string PreparedKeyCache::Fingerprint(const SchemeKey& key) {
  // Length framing before the scheme tag makes the digest input injective
  // in (scheme, payload); the payload needs no trailing frame because it
  // runs to the end of the input.
  Sha256 hasher;
  uint64_t scheme_size = key.scheme.size();
  uint8_t frame[8];
  for (int b = 0; b < 8; ++b) {
    frame[b] = static_cast<uint8_t>(scheme_size >> (8 * b));
  }
  hasher.Update(std::string_view(reinterpret_cast<const char*>(frame), 8));
  hasher.Update(key.scheme);
  hasher.Update(key.payload);
  Sha256::Digest digest = hasher.Finish();
  return std::string(reinterpret_cast<const char*>(digest.data()),
                     digest.size());
}

std::shared_ptr<const PreparedKey> PreparedKeyCache::HitLocked(
    const std::string& fingerprint) {
  auto it = index_.find(fingerprint);
  if (it == index_.end()) return nullptr;
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->second;
}

void PreparedKeyCache::EvictExcessLocked() {
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++evictions_;
  }
}

std::shared_ptr<const PreparedKey> PreparedKeyCache::Get(
    const SchemeKey& key) {
  const std::string fingerprint = Fingerprint(key);
  MutexLock lock(mutex_);
  std::shared_ptr<const PreparedKey> hit = HitLocked(fingerprint);
  if (hit == nullptr) ++misses_;
  return hit;
}

Result<std::shared_ptr<const PreparedKey>> PreparedKeyCache::TryGetOrPrepare(
    const WatermarkScheme& scheme, const SchemeKey& key) {
  const std::string fingerprint = Fingerprint(key);
  {
    MutexLock lock(mutex_);
    std::shared_ptr<const PreparedKey> hit = HitLocked(fingerprint);
    if (hit != nullptr) return hit;
  }

  // Miss: prepare outside the lock so one slow key never serializes the
  // whole cache. On failure, return without inserting anything — the
  // no-tombstone rule above — after counting the miss so the
  // `hits + misses == lookups` invariant holds on every path.
  Status fault = FREQYWM_FAULT_STATUS("prepared_key_cache/prepare");
  if (!fault.ok()) {
    MutexLock lock(mutex_);
    ++misses_;
    return fault;
  }
  std::shared_ptr<const PreparedKey> prepared = scheme.Prepare(key);

  MutexLock lock(mutex_);
  std::shared_ptr<const PreparedKey> hit = HitLocked(fingerprint);
  if (hit != nullptr) {
    // A concurrent miss beat us to the insert. Keep the incumbent so every
    // borrower shares one object; our duplicate preparation is discarded.
    return hit;
  }
  ++misses_;
  lru_.emplace_front(fingerprint, std::move(prepared));
  index_.emplace(fingerprint, lru_.begin());
  EvictExcessLocked();
  return lru_.front().second;
}

size_t PreparedKeyCache::size() const {
  MutexLock lock(mutex_);
  return lru_.size();
}

PreparedKeyCacheStats PreparedKeyCache::stats() const {
  MutexLock lock(mutex_);
  PreparedKeyCacheStats out;
  out.hits = hits_;
  out.misses = misses_;
  out.evictions = evictions_;
  out.size = lru_.size();
  return out;
}

}  // namespace freqywm
