#include "api/freqywm_scheme.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/detect.h"
#include "core/secrets.h"
#include "core/watermark.h"
#include "crypto/sha256.h"
#include "stats/similarity.h"

namespace freqywm {

namespace {

SchemeKey MakeKey(const WatermarkSecrets& secrets) {
  return SchemeKey{"freqywm", secrets.Serialize()};
}

EmbedReport MakeReport(const GenerateReport& report) {
  EmbedReport out;
  out.embedded_units = report.chosen_pairs;
  out.eligible_units = report.eligible_pairs;
  out.similarity_percent = report.similarity_percent;
  out.total_churn = report.total_churn;
  return out;
}

/// Parses the key payload; a foreign scheme tag or corrupt payload yields
/// an error so detection degrades to "rejected" instead of crashing.
Result<WatermarkSecrets> ParseKey(const SchemeKey& key) {
  if (key.scheme != "freqywm") {
    return Status::InvalidArgument("key belongs to scheme '" + key.scheme +
                                   "'");
  }
  return WatermarkSecrets::Deserialize(key.payload);
}

/// The verdict settings of a FreqyWM key: t = 0 and k = max(1, |Lwm|/2)
/// over the parsed pairs; k = 1 for a key that does not parse.
DetectOptions RecommendedOptions(const Result<WatermarkSecrets>& secrets) {
  DetectOptions options;
  options.pair_threshold = 0;
  options.min_pairs =
      secrets.ok() ? std::max<size_t>(1, secrets.value().pairs.size() / 2)
                   : 1;
  return options;
}

/// The prepared detector: the key parsed and its per-pair moduli derived
/// once, so each suspect costs a count gather and the residue checks. An
/// unparsable or foreign key leaves the table invalid, and an invalid
/// table rejects inside `DetectWatermark`.
class FreqyWmPreparedKey : public PreparedKey {
 public:
  explicit FreqyWmPreparedKey(const SchemeKey& key)
      : FreqyWmPreparedKey(key, ParseKey(key)) {}

  DetectResult Detect(const Histogram& suspect,
                      const DetectOptions& options) const override {
    return DetectWatermark(suspect, table_, options);
  }

  /// Zero hash probes per cell (DESIGN.md §10).
  DetectResult Detect(const DenseSuspectCounts& counts,
                      const uint32_t* dense_ids,
                      const DetectOptions& options) const override {
    return DetectWatermark(table_, dense_ids, counts.counts, counts.present,
                           options);
  }

  /// Detection reads exactly the counts of the table's interned tokens, so
  /// those are the dense-gather vocabulary; an invalid table (malformed
  /// key) opts out and the engine degrades to the rejecting histogram
  /// path.
  const std::vector<Token>* TokenVocabulary() const override {
    return table_.valid() ? &table_.tokens() : nullptr;
  }

 private:
  FreqyWmPreparedKey(const SchemeKey& key,
                     const Result<WatermarkSecrets>& secrets)
      : PreparedKey(key, RecommendedOptions(secrets)) {
    if (secrets.ok()) table_ = PairModulusTable::Build(secrets.value());
  }

  PairModulusTable table_;
};

}  // namespace

FreqyWmScheme::FreqyWmScheme(GenerateOptions options,
                             RefreshOptions refresh_options)
    : options_(options), refresh_options_(refresh_options) {}

std::string FreqyWmScheme::name() const { return "freqywm"; }

Result<EmbedOutcome> FreqyWmScheme::Embed(const Histogram& original,
                                          const ExecContext& exec) const {
  FREQYWM_RETURN_NOT_OK(exec.CheckInterrupted());
  FREQYWM_ASSIGN_OR_RETURN(
      HistogramGenerateResult generated,
      WatermarkGenerator(options_).GenerateFromHistogram(original, exec));
  EmbedOutcome out;
  out.key = MakeKey(generated.report.secrets);
  out.report = MakeReport(generated.report);
  out.watermarked = std::move(generated.watermarked);
  return out;
}

std::unique_ptr<PreparedKey> FreqyWmScheme::Prepare(
    const SchemeKey& key) const {
  return std::make_unique<FreqyWmPreparedKey>(key);
}

uint64_t FreqyWmScheme::dataset_transform_seed(const SchemeKey& key) const {
  return options_.seed == 0 ? DigestPrefixU64(Sha256::Hash(key.payload))
                            : options_.seed + 0x517cc1b727220a95ULL;
}

Result<EmbedOutcome> FreqyWmScheme::Refresh(const Histogram& drifted,
                                            const SchemeKey& key) const {
  FREQYWM_ASSIGN_OR_RETURN(WatermarkSecrets secrets, ParseKey(key));
  FREQYWM_ASSIGN_OR_RETURN(
      RefreshResult refreshed,
      RefreshWatermark(drifted, secrets, refresh_options_));
  EmbedOutcome out;
  out.key = MakeKey(refreshed.secrets);
  out.report.embedded_units = refreshed.secrets.pairs.size();
  out.report.eligible_units = refreshed.report.pairs_checked;
  out.report.total_churn = refreshed.report.total_churn;
  out.report.similarity_percent =
      HistogramSimilarityPercent(drifted, refreshed.refreshed);
  out.watermarked = std::move(refreshed.refreshed);
  return out;
}

}  // namespace freqywm
