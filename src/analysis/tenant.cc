#include "analysis/tenant.h"

#include <algorithm>
#include <utility>

#include "exec/fault_injection.h"

namespace freqywm {

// --------------------------------------------------------- TenantSession

TenantSession::TenantSession(TenantContext* tenant,
                             std::unique_ptr<BatchDetector::Session> session)
    : tenant_(tenant), session_(std::move(session)) {}

TenantSession::~TenantSession() {
  {
    // Return every still-leased unit before freeing the session slot, so
    // a tenant that abandons undrained work never leaks in-flight
    // capacity.
    MutexLock lock(mu_);
    permits_.clear();
  }
  MutexLock lock(tenant_->mu_);
  --tenant_->open_sessions_;
  auto& live = tenant_->live_sessions_;
  live.erase(std::remove(live.begin(), live.end(), this), live.end());
}

Status TenantSession::Submit(std::vector<Histogram> suspects,
                             const InterruptContext& interrupt) {
  if (suspects.empty()) return Status::OK();
  Result<AdmissionController::Permit> permit =
      tenant_->admission_->Admit(suspects.size(), interrupt);
  FREQYWM_RETURN_NOT_OK(permit.status());
  Enqueue(std::move(permit).value(), std::move(suspects));
  return Status::OK();
}

Status TenantSession::TrySubmit(std::vector<Histogram> suspects,
                                const Deadline& deadline) {
  if (suspects.empty()) return Status::OK();
  Result<AdmissionController::Permit> permit =
      tenant_->admission_->TryAdmit(suspects.size(), deadline);
  FREQYWM_RETURN_NOT_OK(permit.status());
  Enqueue(std::move(permit).value(), std::move(suspects));
  return Status::OK();
}

void TenantSession::Enqueue(AdmissionController::Permit permit,
                            std::vector<Histogram> suspects) {
  // Queue and file the permit under one lock: a concurrent drain that
  // claims these rows releases their units only after the permit is
  // filed, so every queued suspect holds a unit.
  MutexLock lock(mu_);
  session_->AddSuspects(std::move(suspects));
  permits_.push_back(std::move(permit));
}

SessionDrainResult TenantSession::DrainChecked(
    const InterruptContext& interrupt) {
  SessionDrainResult result = session_->DrainChecked(interrupt);
  // One admitted unit per drained row; an interrupted drain still
  // consumed its claimed suspects (the DrainChecked contract), so their
  // units return here either way.
  ReleaseUnits(result.verdicts.size());
  return result;
}

size_t TenantSession::pending_suspects() const {
  return session_->pending_suspects();
}

void TenantSession::ReleaseUnits(size_t rows) {
  MutexLock lock(mu_);
  while (rows > 0 && !permits_.empty()) {
    AdmissionController::Permit& front = permits_.front();
    const size_t take = std::min(front.units(), rows);
    front.ReleasePartial(take);
    rows -= take;
    if (front.units() == 0) permits_.pop_front();
  }
}

// --------------------------------------------------------- TenantContext

namespace {

std::unique_ptr<AdmissionController> MakeAdmission(
    const TenantQuotas& quotas) {
  AdmissionOptions options;
  options.max_in_flight = quotas.max_in_flight_suspects;
  options.max_pending = quotas.max_pending_suspects;
  options.rate_per_unit_time = quotas.rate_per_unit_time;
  options.burst = quotas.burst;
  options.clock_nanos = quotas.clock_nanos;
  return std::make_unique<AdmissionController>(std::move(options));
}

}  // namespace

TenantContext::TenantContext(std::string tenant_id, TenantQuotas quotas)
    : tenant_id_(std::move(tenant_id)),
      quotas_(std::move(quotas)),
      key_cache_(std::make_shared<PreparedKeyCache>(
          quotas_.max_cache_entries > 0 ? quotas_.max_cache_entries
                                        : PreparedKeyCache::kDefaultCapacity)),
      admission_(MakeAdmission(quotas_)) {
  if (!quotas_.durable_dir.empty()) {
    DurableRegistryOptions options;
    options.wal.sync_policy = quotas_.durable_sync_policy;
    options.checkpoint_threshold_bytes =
        quotas_.durable_checkpoint_threshold_bytes;
    Result<std::unique_ptr<DurableRegistry>> opened =
        DurableRegistry::Open(quotas_.durable_dir, options);
    if (opened.ok()) {
      durable_ = std::move(opened).value();
    } else {
      // A constructor cannot fail; the recovery error is held and
      // returned by every Escrow (prefer `Open`, which surfaces it
      // immediately).
      durable_open_error_ = opened.status();
    }
  }
}

Result<std::unique_ptr<TenantContext>> TenantContext::Open(
    std::string tenant_id, TenantQuotas quotas) {
  auto tenant = std::make_unique<TenantContext>(std::move(tenant_id),
                                                std::move(quotas));
  FREQYWM_RETURN_NOT_OK(tenant->durable_open_error_);
  return tenant;
}

Status TenantContext::Escrow(const std::string& buyer_id, SchemeKey key) {
  FREQYWM_FAULT_POINT("tenant/quota");
  FREQYWM_RETURN_NOT_OK(durable_open_error_);
  MutexLock lock(mu_);
  const size_t escrowed = durable_ ? durable_->size() : registry_.size();
  if (quotas_.max_escrowed_keys > 0 &&
      escrowed >= quotas_.max_escrowed_keys) {
    return Status::ResourceExhausted(
        "tenant '" + tenant_id_ + "' key-escrow quota reached (" +
        std::to_string(quotas_.max_escrowed_keys) + " keys)");
  }
  if (durable_) return durable_->Register(buyer_id, std::move(key));
  return registry_.Register(buyer_id, std::move(key));
}

Result<std::unique_ptr<TenantSession>> TenantContext::OpenSession(
    size_t num_threads) {
  std::vector<SchemeKey> keys;
  {
    MutexLock lock(mu_);
    if (quotas_.max_concurrent_sessions > 0 &&
        open_sessions_ >= quotas_.max_concurrent_sessions) {
      return Status::ResourceExhausted(
          "tenant '" + tenant_id_ + "' session quota reached (" +
          std::to_string(quotas_.max_concurrent_sessions) +
          " concurrent sessions)");
    }
    ++open_sessions_;  // slot claimed; construction below cannot fail
    if (!durable_) {
      keys.reserve(registry_.size());
      for (const FingerprintRecord& record : registry_.records()) {
        keys.push_back(record.key);
      }
    }
  }
  if (durable_) {
    // Outside `mu_`: the durable registry is internally synchronized,
    // and the session-keys contract is bind-at-open-time either way.
    const FingerprintRegistry snapshot = durable_->Snapshot();
    keys.reserve(snapshot.size());
    for (const FingerprintRecord& record : snapshot.records()) {
      keys.push_back(record.key);
    }
  }
  BatchDetectOptions options;
  options.num_threads = num_threads;
  options.key_cache = key_cache_;
  // Key preparation (the expensive part) runs outside the tenant lock.
  auto session = std::unique_ptr<TenantSession>(new TenantSession(
      this,
      std::make_unique<BatchDetector::Session>(std::move(options),
                                               std::move(keys))));
  MutexLock lock(mu_);
  live_sessions_.push_back(session.get());
  return session;
}

FingerprintRegistry TenantContext::RegistrySnapshot() const {
  if (durable_) return durable_->Snapshot();
  MutexLock lock(mu_);
  return registry_;
}

Result<std::vector<std::vector<TraceMatch>>> TenantContext::TraceSuspects(
    const std::vector<Histogram>& suspects, size_t num_threads) const {
  const FingerprintRegistry snapshot = RegistrySnapshot();
  BatchDetectOptions options;
  options.num_threads = num_threads;
  options.key_cache = key_cache_;
  return snapshot.TraceSuspects(suspects, options);
}

EngineHealthSnapshot TenantContext::Health() const {
  EngineHealthSnapshot snapshot;
  snapshot.admission = admission_->stats();
  snapshot.key_cache = key_cache_->stats();
  if (durable_) snapshot.durability = durable_->gauges();
  MutexLock lock(mu_);
  snapshot.open_sessions = open_sessions_;
  for (const TenantSession* session : live_sessions_) {
    snapshot.session_queue_depth += session->pending_suspects();
  }
  return snapshot;
}

size_t TenantContext::escrowed_keys() const {
  if (durable_) return durable_->size();
  MutexLock lock(mu_);
  return registry_.size();
}

size_t TenantContext::open_sessions() const {
  MutexLock lock(mu_);
  return open_sessions_;
}

}  // namespace freqywm
