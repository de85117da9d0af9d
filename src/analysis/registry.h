#ifndef FREQYWM_ANALYSIS_REGISTRY_H_
#define FREQYWM_ANALYSIS_REGISTRY_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "api/scheme.h"
#include "common/result.h"
#include "core/detect.h"
#include "core/secrets.h"
#include "data/histogram.h"
#include "exec/batch_detector.h"

namespace freqywm {

/// One escrowed fingerprint: a buyer identity and the scheme-tagged key of
/// the watermark embedded in that buyer's copy. Buyers of the same asset
/// may be fingerprinted with different schemes — `TraceSuspects`
/// dispatches each record through the `SchemeFactory` by its tag.
struct FingerprintRecord {
  std::string buyer_id;
  SchemeKey key;
};

/// Result of tracing a suspect dataset against the registry.
struct TraceMatch {
  std::string buyer_id;
  /// Scheme tag of the matching record (useful when buyers mix schemes).
  std::string scheme;
  DetectResult detection;

  friend bool operator==(const TraceMatch& a, const TraceMatch& b) {
    return a.buyer_id == b.buyer_id && a.scheme == b.scheme &&
           a.detection == b.detection;
  }
};

/// The immutable escrow index from the paper's introduction: a seller (or
/// marketplace) stores one watermark key per buyer; when an unauthorized
/// copy surfaces, `TraceSuspects` identifies the culprit by running every
/// escrowed key against it — entirely through the `WatermarkScheme`
/// interface, with no scheme-specific branching.
///
/// The paper suggests a blockchain for immutability; this class provides
/// the data structure and a text serialization — pin the serialized bytes
/// wherever immutability is required.
class FingerprintRegistry {
 public:
  FingerprintRegistry() = default;

  /// Escrows a buyer's scheme-tagged fingerprint key. Fails with
  /// `InvalidArgument` when the buyer id is empty, contains newlines, or is
  /// already registered, or when the key's scheme tag is empty or contains
  /// whitespace.
  [[nodiscard]] Status Register(const std::string& buyer_id, SchemeKey key);

  /// The record-format half of `Register`'s checks (everything but the
  /// duplicate test), so `DurableRegistry` can reject a malformed record
  /// before logging it.
  [[nodiscard]] static Status Validate(const std::string& buyer_id,
                                       const SchemeKey& key);

  /// Legacy convenience for FreqyWM secrets (delegates to the tagged
  /// overload with scheme "freqywm").
  [[nodiscard]] Status Register(const std::string& buyer_id,
                                const WatermarkSecrets& secrets);

  size_t size() const { return records_.size(); }
  const std::vector<FingerprintRecord>& records() const { return records_; }

  /// O(1) membership test on the buyer-id index — what makes WAL replay
  /// idempotent (`DurableRegistry` skips already-snapshotted records by
  /// id instead of re-registering and failing).
  bool Contains(const std::string& buyer_id) const {
    return buyer_ids_.count(buyer_id) > 0;
  }

  /// Traces a batch of suspect copies — the marketplace workload where one
  /// owner screens many surfaced datasets at once. Every escrowed key runs
  /// against every suspect through its prepared key, in one
  /// `BatchDetector::Session` (DESIGN.md §7): under each prepared key's
  /// `recommended_options()` by default, or under `options.detect_options`
  /// when it is set.
  /// Element `i` of the result lists the accepted matches for
  /// `suspects[i]`, strongest first (by verified fraction, ties by
  /// registration order). Records whose scheme is not registered in the
  /// `SchemeFactory` are skipped. Any other failure — a failed drain, a
  /// failed cell, or a key whose `Prepare` failed — is returned as the
  /// error instead of passing as "no match". Results are independent of
  /// `options.num_threads` and `options.key_cache`.
  [[nodiscard]] Result<std::vector<std::vector<TraceMatch>>> TraceSuspects(
      const std::vector<Histogram>& suspects,
      const BatchDetectOptions& options = {}) const;

  /// Serializes the whole registry (buyer ids + scheme-tagged keys).
  std::string Serialize() const;

  /// Parses the output of `Serialize`. Accepts both the current v2 format
  /// and the legacy v1 format (untagged FreqyWM secrets). Rejects
  /// duplicate buyer ids with `InvalidArgument` (like `Register`),
  /// byte-level damage with `Corruption`, and — since the ISSUE 5
  /// round-trip hardening — text whose `records` header undercounts the
  /// records present (`InvalidArgument`: trailing data would be silently
  /// dropped by a round trip) or whose size fields overflow `uint64`.
  [[nodiscard]] static Result<FingerprintRegistry> Deserialize(
      const std::string& text);

  /// `Serialize()` output plus an integrity footer — the byte format of
  /// `SaveToFile` (DESIGN.md §13). The footer is one final line,
  /// `checksum sha256 <64 lowercase hex>`, whose digest covers every byte
  /// before it, so truncation, bit rot and torn writes are detected
  /// before any record is parsed.
  std::string SerializeSnapshot() const;

  /// Parses the output of `SerializeSnapshot`: verifies the checksum
  /// footer, then delegates to `Deserialize`. Typed failures: a missing
  /// or malformed footer (including a truncated final line) and a digest
  /// mismatch are `Corruption`; record-level damage reports whatever
  /// `Deserialize` reports.
  [[nodiscard]] static Result<FingerprintRegistry> ParseSnapshot(
      const std::string& text);

  /// Non-fatal observations from a successful `SaveToFile` — durability
  /// weaker than requested, but the snapshot itself is intact.
  struct SaveReport {
    /// Times the parent-directory fsync (which makes the final rename
    /// itself durable) failed or was unsupported. The data file is still
    /// synced; on such filesystems a crash immediately after save may
    /// surface the previous snapshot instead of this one.
    uint64_t parent_dir_fsync_warnings = 0;
  };

  /// Atomically persists the snapshot to `path` (DESIGN.md §13): writes
  /// `path + ".tmp"`, fsyncs it, then renames over `path` — a reader (or
  /// a crash) at any instant sees either the previous complete snapshot
  /// or the new one, never a torn file. I/O failures are `Unavailable`
  /// (transient, retryable); the temp file is cleaned up on failure.
  /// A non-null `report` receives warning counts (see `SaveReport`) that
  /// do not fail the save.
  [[nodiscard]] Status SaveToFile(const std::string& path,
                                  SaveReport* report = nullptr) const;

  /// Reads and `ParseSnapshot`s `path`. `NotFound` when the file does not
  /// exist, `Unavailable` for transient read errors, `Corruption` for a
  /// damaged snapshot.
  [[nodiscard]] static Result<FingerprintRegistry> LoadFromFile(
      const std::string& path);

 private:
  std::vector<FingerprintRecord> records_;
  /// Registered ids, for O(1) duplicate rejection — `Register` stays
  /// linear-free at registry scale (a million escrowed buyers would
  /// otherwise make registration, and thus `Deserialize`, quadratic).
  std::unordered_set<std::string> buyer_ids_;
};

}  // namespace freqywm

#endif  // FREQYWM_ANALYSIS_REGISTRY_H_
