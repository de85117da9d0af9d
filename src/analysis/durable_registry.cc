// Crash-durable registry: WAL-before-ack + snapshot checkpoints
// (DESIGN.md §15).
#include "analysis/durable_registry.h"

#include <utility>

#include "exec/fault_injection.h"

namespace freqywm {

namespace {

constexpr char kSnapshotFile[] = "registry.snapshot";
constexpr char kWalFile[] = "registry.wal";

std::string JoinPath(const std::string& dir, const char* file) {
  if (dir.empty()) return file;
  if (dir.back() == '/') return dir + file;
  return dir + "/" + file;
}

}  // namespace

std::string EncodeRegistration(const std::string& buyer_id,
                               const SchemeKey& key) {
  // buyer_id cannot contain '\n' and scheme cannot contain whitespace
  // (Register's validation, enforced before any byte is logged), so two
  // newline-terminated lines followed by the raw payload round-trip
  // byte-exactly.
  std::string payload;
  payload.reserve(buyer_id.size() + key.scheme.size() + key.payload.size() +
                  2);
  payload += buyer_id;
  payload += '\n';
  payload += key.scheme;
  payload += '\n';
  payload += key.payload;
  return payload;
}

Result<FingerprintRecord> DecodeRegistration(std::string_view payload) {
  const size_t id_end = payload.find('\n');
  if (id_end == std::string_view::npos) {
    return Status::Corruption("WAL record: missing buyer-id line");
  }
  const size_t scheme_end = payload.find('\n', id_end + 1);
  if (scheme_end == std::string_view::npos) {
    return Status::Corruption("WAL record: missing scheme line");
  }
  FingerprintRecord record;
  record.buyer_id = std::string(payload.substr(0, id_end));
  record.key.scheme =
      std::string(payload.substr(id_end + 1, scheme_end - id_end - 1));
  record.key.payload = std::string(payload.substr(scheme_end + 1));
  if (record.buyer_id.empty()) {
    return Status::Corruption("WAL record: empty buyer id");
  }
  if (record.key.scheme.empty() ||
      record.key.scheme.find_first_of(" \t\n") != std::string::npos) {
    return Status::Corruption("WAL record: malformed scheme tag");
  }
  return record;
}

std::string DurableRegistry::SnapshotPath(const std::string& dir) {
  return JoinPath(dir, kSnapshotFile);
}

std::string DurableRegistry::WalPath(const std::string& dir) {
  return JoinPath(dir, kWalFile);
}

Result<std::unique_ptr<DurableRegistry>> DurableRegistry::Open(
    const std::string& dir, DurableRegistryOptions options) {
  OpenStats stats;

  FingerprintRegistry registry;
  Result<FingerprintRegistry> loaded =
      FingerprintRegistry::LoadFromFile(SnapshotPath(dir));
  if (loaded.ok()) {
    registry = std::move(loaded).value();
    stats.snapshot_loaded = true;
  } else if (loaded.status().code() != StatusCode::kNotFound) {
    // A damaged or unreadable snapshot is never silently discarded — the
    // WAL alone cannot prove how many checkpointed records it covered.
    return loaded.status();
  }

  Result<WriteAheadLog::OpenResult> wal =
      WriteAheadLog::Open(WalPath(dir), options.wal);
  FREQYWM_RETURN_NOT_OK(wal.status());
  stats.torn_tail_truncated = wal.value().torn_tail_truncated;
  stats.truncated_bytes = wal.value().truncated_bytes;

  // Idempotent replay: records the last checkpoint already covers — the
  // crash-between-publish-and-rotate window — are skipped by id. Any
  // other Register failure means the WAL and snapshot disagree in a way
  // replay must not paper over.
  for (const std::string& payload : wal.value().records) {
    FREQYWM_ASSIGN_OR_RETURN(FingerprintRecord record,
                             DecodeRegistration(payload));
    if (registry.Contains(record.buyer_id)) {
      ++stats.duplicates_skipped;
      continue;
    }
    FREQYWM_RETURN_NOT_OK(
        registry.Register(record.buyer_id, std::move(record.key)));
    ++stats.records_replayed;
  }

  return std::unique_ptr<DurableRegistry>(
      new DurableRegistry(dir, std::move(options), std::move(registry),
                          std::move(wal.value().log), stats));
}

DurableRegistry::DurableRegistry(std::string dir,
                                 DurableRegistryOptions options,
                                 FingerprintRegistry registry,
                                 std::unique_ptr<WriteAheadLog> wal,
                                 OpenStats open_stats)
    : dir_(std::move(dir)),
      options_(options),
      open_stats_(open_stats),
      registry_(std::move(registry)),
      wal_(std::move(wal)) {}

Status DurableRegistry::Register(const std::string& buyer_id, SchemeKey key) {
  MutexLock lock(mu_);
  // Validate first (duplicate id, malformed id/scheme) so rejected
  // registrations never consume log space — and so replay of whatever a
  // crash leaves in the WAL cannot re-encounter the rejection.
  if (registry_.Contains(buyer_id)) {
    return Status::InvalidArgument("buyer '" + buyer_id +
                                   "' already registered");
  }
  FREQYWM_RETURN_NOT_OK(FingerprintRegistry::Validate(buyer_id, key));

  // Durability point: the record must be in the log (and, under
  // fsync=every, on the platter) before the in-memory state — and thus
  // the caller's acknowledgement — can see it.
  const std::string payload = EncodeRegistration(buyer_id, key);
  FREQYWM_RETURN_NOT_OK(wal_->Append(payload));
  FREQYWM_RETURN_NOT_OK(registry_.Register(buyer_id, std::move(key)));
  ++records_since_checkpoint_;
  bytes_since_checkpoint_ += payload.size();

  if (options_.checkpoint_threshold_bytes > 0 &&
      wal_->size_bytes() > options_.checkpoint_threshold_bytes) {
    // The record is already acked-durable; a failed checkpoint must not
    // un-acknowledge it. Count the failure and retry at the next
    // crossing.
    if (!CheckpointLocked().ok()) ++checkpoint_failures_;
  }
  return Status::OK();
}

Status DurableRegistry::Checkpoint() {
  MutexLock lock(mu_);
  return CheckpointLocked();
}

Status DurableRegistry::CheckpointLocked() {
  // Order is the invariant: the snapshot covering every logged record
  // must be durably published BEFORE the log forgets them. A crash
  // after publish but before rotate re-replays the stale records, which
  // idempotent replay skips by id.
  FREQYWM_RETURN_NOT_OK(FREQYWM_FAULT_STATUS("checkpoint/publish"));
  FingerprintRegistry::SaveReport report;
  FREQYWM_RETURN_NOT_OK(registry_.SaveToFile(SnapshotPath(dir_), &report));
  parent_dir_fsync_warnings_ += report.parent_dir_fsync_warnings;
  FREQYWM_RETURN_NOT_OK(wal_->Rotate());
  ++checkpoints_published_;
  records_since_checkpoint_ = 0;
  bytes_since_checkpoint_ = 0;
  return Status::OK();
}

Status DurableRegistry::Sync() {
  MutexLock lock(mu_);
  return wal_->Sync();
}

FingerprintRegistry DurableRegistry::Snapshot() const {
  MutexLock lock(mu_);
  return registry_;
}

size_t DurableRegistry::size() const {
  MutexLock lock(mu_);
  return registry_.size();
}

bool DurableRegistry::Contains(const std::string& buyer_id) const {
  MutexLock lock(mu_);
  return registry_.Contains(buyer_id);
}

DurabilityGauges DurableRegistry::gauges() const {
  MutexLock lock(mu_);
  DurabilityGauges gauges;
  gauges.durable = true;
  gauges.wal_size_bytes = wal_->size_bytes();
  gauges.wal_unsynced_records = wal_->unsynced_records();
  gauges.wal_unsynced_bytes = wal_->unsynced_bytes();
  gauges.wal_records_since_checkpoint = records_since_checkpoint_;
  gauges.wal_bytes_since_checkpoint = bytes_since_checkpoint_;
  gauges.checkpoints_published = checkpoints_published_;
  gauges.checkpoint_failures = checkpoint_failures_;
  gauges.records_replayed_at_open = open_stats_.records_replayed;
  gauges.duplicates_skipped_at_open = open_stats_.duplicates_skipped;
  gauges.torn_tail_truncated_at_open = open_stats_.torn_tail_truncated;
  gauges.parent_dir_fsync_warnings = parent_dir_fsync_warnings_;
  return gauges;
}

}  // namespace freqywm
