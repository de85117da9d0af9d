#ifndef FREQYWM_API_SCHEME_H_
#define FREQYWM_API_SCHEME_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/detect.h"
#include "core/options.h"
#include "data/dataset.h"
#include "data/histogram.h"
#include "exec/exec_context.h"

namespace freqywm {

/// The portable proof-of-ownership artifact every scheme emits at embed
/// time and consumes at detect time: a factory id plus the scheme-specific
/// secret material, serialized (see DESIGN.md §6).
///
/// For FreqyWM the payload is `WatermarkSecrets::Serialize()` (`Lsc`); for
/// WM-OBT it is the partition key, bit string and decode threshold; for
/// WM-RVS the digit key and bit string. Treat the whole struct as secret —
/// anyone holding it can verify (and, for some schemes, strip) the
/// watermark.
struct SchemeKey {
  /// Factory id of the scheme that produced this key ("freqywm", ...).
  std::string scheme;
  /// Scheme-specific serialized secret material.
  std::string payload;

  /// Serializes tag + payload into one self-describing text blob.
  std::string Serialize() const;

  /// Parses the output of `Serialize`. Fails with `Corruption` on malformed
  /// input.
  [[nodiscard]] static Result<SchemeKey> Deserialize(const std::string& text);

  /// Saves to / loads from a file.
  [[nodiscard]] Status SaveToFile(const std::string& path) const;
  [[nodiscard]] static Result<SchemeKey> LoadFromFile(const std::string& path);

  friend bool operator==(const SchemeKey& a, const SchemeKey& b) {
    return a.scheme == b.scheme && a.payload == b.payload;
  }
};

/// Scheme-agnostic embedding statistics. "Units" are whatever the scheme
/// embeds: FreqyWM pairs, WM-OBT partitions, WM-RVS digits.
struct EmbedReport {
  /// Units actually carrying watermark information (|Lwm| for FreqyWM).
  size_t embedded_units = 0;
  /// Units that were candidates (|Le| for FreqyWM; 0 when the scheme has no
  /// eligibility phase).
  size_t eligible_units = 0;
  /// Similarity (percent) between original and watermarked histograms.
  double similarity_percent = 100.0;
  /// Token instances added plus removed.
  uint64_t total_churn = 0;
};

/// What `WatermarkScheme::Embed` produces: the artifact, the key to detect
/// it later, and the statistics the paper's tables report.
struct EmbedOutcome {
  Histogram watermarked;
  SchemeKey key;
  EmbedReport report;
};

/// Dataset-level sibling of `EmbedOutcome` (row-level artifact).
struct DatasetEmbedOutcome {
  Dataset watermarked;
  SchemeKey key;
  EmbedReport report;
};

/// A suspect histogram scattered into dense token ids (DESIGN.md §10): the
/// batch engine interns the union of its keys' `TokenVocabulary`s into ids
/// `[0, vocab_size)` once per session, then writes each suspect's counts
/// into one flat array — `counts[id]` is valid iff `present[id]` is
/// non-zero. A detection cell reads counts by index instead of hashing
/// into the suspect histogram per key token. Both pointers are non-null
/// and sized to the session vocabulary; the view never owns the storage.
struct DenseSuspectCounts {
  const uint64_t* counts = nullptr;
  const uint8_t* present = nullptr;
};

/// Per-key detection state returned by `WatermarkScheme::Prepare`, and the
/// detector itself (DESIGN.md §8): the paper's WmDetect takes a key and
/// tests it on a suspect, so each scheme parses its key (and derives
/// whatever it reuses across suspects) once in `Prepare`, and the prepared
/// key then runs detection on any number of suspects.
///
/// It also carries the (t, k) the paper's WmDetect takes with the key:
/// `recommended_options()`, derived from the payload `Prepare` parses.
///
/// Instances are immutable after `Prepare` and safe to share across
/// threads. Prepared state must be a pure function of the `SchemeKey`
/// alone — never of the preparing instance's embed-side configuration —
/// so instances are shareable across runs, sessions and tenants through
/// the `PreparedKeyCache` (DESIGN.md §10); every in-tree `Prepare` only
/// parses the key payload.
class PreparedKey {
 public:
  PreparedKey(SchemeKey key, DetectOptions recommended_options)
      : key_(std::move(key)), recommended_options_(recommended_options) {}
  virtual ~PreparedKey() = default;

  /// The key this state was derived from.
  const SchemeKey& key() const { return key_; }

  /// Detection settings that make `Detect` a sound accept/reject oracle
  /// for this key on un-attacked data: the CLI default and a session's
  /// per-key settings when it is given none. A pure function of the key;
  /// a malformed or foreign-scheme key still gets settings.
  const DetectOptions& recommended_options() const {
    return recommended_options_;
  }

  /// Runs detection of the key on a suspect histogram. `options`
  /// semantics per scheme: `min_pairs` is always the minimum number of
  /// verified units; `pair_threshold` is the per-unit tolerance (FreqyWM
  /// residue bound; WM-OBT number of partitions allowed to decode wrongly;
  /// unused by WM-RVS). Never fails: a malformed or foreign-scheme key
  /// yields a default (rejected) `DetectResult`.
  virtual DetectResult Detect(const Histogram& suspect,
                              const DetectOptions& options) const = 0;

  /// Dense-gather detection (DESIGN.md §10), reached only when
  /// `TokenVocabulary()` is non-null: `dense_ids[t]` maps index `t` of
  /// the vocabulary to an id in `counts`, which the batch engine
  /// scattered from the suspect histogram once for all keys. Byte-identical
  /// to `Detect(suspect, options)` whenever `counts` was scattered from
  /// `suspect` over a vocabulary union containing the key's tokens. The
  /// default rejects.
  virtual DetectResult Detect(const DenseSuspectCounts& counts,
                              const uint32_t* dense_ids,
                              const DetectOptions& options) const;

  /// The key's token vocabulary: the distinct tokens whose suspect-side
  /// counts detection reads, enabling the batch engine's dense count
  /// gather (DESIGN.md §10). Returns nullptr when detection scans the
  /// whole suspect histogram instead of a key-determined token set (WM-OBT
  /// partition statistics, WM-RVS per-token digits) or when the key is
  /// malformed — the engine then uses the histogram `Detect`. When
  /// non-null, the subclass must override the dense `Detect`, and the
  /// vector must stay valid and unchanged for the lifetime of this object.
  virtual const std::vector<Token>* TokenVocabulary() const {
    return nullptr;
  }

 private:
  SchemeKey key_;
  DetectOptions recommended_options_;
};

/// The unified lifecycle interface every watermarking scheme implements
/// (tentpole of the API redesign; DESIGN.md §6). The paper's evaluation is
/// a schemes x attacks x datasets matrix — this interface makes each sweep
/// a loop over `SchemeFactory` names instead of per-scheme plumbing.
///
/// Contract:
///  * `Embed` is deterministic for a fixed scheme configuration (schemes
///    draw randomness from their configured seed, never from global state).
///  * `Detect` must accept the scheme's own fresh embedding and reject a
///    clean histogram presented with a foreign key (enforced for every
///    registered scheme by `tests/api/scheme_conformance_test.cc`).
///  * `Detect` never fails: a malformed or foreign-scheme key yields a
///    default (rejected) `DetectResult`.
class WatermarkScheme {
 public:
  virtual ~WatermarkScheme() = default;

  /// Factory id; equals the name the scheme is registered under.
  virtual std::string name() const = 0;

  /// Watermarks a frequency histogram: the one embed every scheme
  /// implements. When `exec` carries a thread pool, the scheme's
  /// intra-embed hot loops run sharded across it — FreqyWM's
  /// eligible-pair scan (DESIGN.md §8), WM-OBT's per-partition genetic
  /// optimization and WM-RVS's per-token keyed-hash pass (DESIGN.md §9).
  /// Implementations honor the context's cancellation/deadline and keep
  /// the determinism contract: byte-identical output at any thread count.
  [[nodiscard]] virtual Result<EmbedOutcome> Embed(
      const Histogram& original, const ExecContext& exec) const = 0;

  /// Serial `Embed`: forwards with a default `ExecContext`.
  [[nodiscard]] Result<EmbedOutcome> Embed(const Histogram& original) const;

  /// Watermarks a dataset end-to-end, the one row-level embed of every
  /// scheme: one sharded count of the row ids (`ExecContext::CountIds`)
  /// builds the histogram, `Embed(original, exec)` runs, then the sharded
  /// `TransformDataset` (DESIGN.md §17) starts from the same counts and
  /// draws from `dataset_transform_seed(key)`. Bit-identical for any
  /// thread count; cancellation/deadline, polled by the count, the embed
  /// and the transform, surface as `kCancelled` / `kDeadlineExceeded`.
  [[nodiscard]] Result<DatasetEmbedOutcome> EmbedDataset(
      const Dataset& original, const ExecContext& exec) const;

  /// Serial `EmbedDataset`: forwards with a default `ExecContext`.
  [[nodiscard]] Result<DatasetEmbedOutcome> EmbedDataset(
      const Dataset& original) const;

  /// Runs detection of `key` on a suspect histogram:
  /// `Prepare(key)->Detect(suspect, options)`. A one-off call pays the
  /// key's preparation; callers detecting many suspects prepare once.
  DetectResult Detect(const Histogram& suspect, const SchemeKey& key,
                      const DetectOptions& options) const;

  /// Dense-gather detection: `prepared.Detect(counts, dense_ids, options)`.
  DetectResult Detect(const DenseSuspectCounts& counts,
                      const uint32_t* dense_ids, const PreparedKey& prepared,
                      const DetectOptions& options) const;

  /// Derives the detector for `key`: the scheme's one detection virtual.
  /// The batch engine prepares each key once and then runs the whole
  /// suspect column against it, so key parsing and keyed-hash derivation
  /// are paid |keys| times instead of |suspects| × |keys| times. A
  /// malformed or foreign-scheme key still yields a prepared key, one that
  /// rejects every suspect. Never returns null.
  virtual std::unique_ptr<PreparedKey> Prepare(const SchemeKey& key) const = 0;

  /// `Prepare(key)->recommended_options()`. A one-off call pays the key's
  /// preparation; callers that also detect read the prepared key's.
  DetectOptions RecommendedDetectOptions(const SchemeKey& key) const;

  /// Re-aligns a drifted watermark (incremental maintenance, paper §VI).
  /// Default: `NotSupported`, which is how a caller learns that a scheme
  /// (WM-OBT) has no refresh.
  [[nodiscard]] virtual Result<EmbedOutcome> Refresh(
      const Histogram& drifted, const SchemeKey& key) const;

 protected:
  /// Seed for `EmbedDataset`'s row placement, from the scheme's secret
  /// seed or the key the embed just produced, so runs are reproducible.
  virtual uint64_t dataset_transform_seed(const SchemeKey& /*key*/) const {
    return 0x7ab5eedULL;
  }
};

}  // namespace freqywm

#endif  // FREQYWM_API_SCHEME_H_
