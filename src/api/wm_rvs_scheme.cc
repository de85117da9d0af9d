#include "api/wm_rvs_scheme.h"

#include <memory>
#include <sstream>
#include <utility>

#include "api/key_util.h"
#include "stats/similarity.h"

namespace freqywm {

namespace {

constexpr char kKeyMagic[] = "wm-rvs-key v1";

/// The verdict settings of every WM-RVS key, malformed ones too. The
/// majority rule in `DetectWmRvs` carries the discrimination (chance floor
/// ~10%); `min_pairs` only guards against trivially small evidence.
DetectOptions RecommendedOptions() {
  DetectOptions options;
  options.min_pairs = 4;
  return options;
}

/// The prepared detector: the key payload parsed once. An unparsable or
/// foreign key leaves `valid_` false and rejects every suspect. There is no
/// `TokenVocabulary`: WM-RVS re-derives a keyed digit for *every* suspect
/// token, so the batch engine uses the histogram `Detect` (DESIGN.md §10).
class WmRvsPreparedKey : public PreparedKey {
 public:
  explicit WmRvsPreparedKey(const SchemeKey& key)
      : PreparedKey(key, RecommendedOptions()) {
    if (key.scheme != "wm-rvs") return;
    auto parsed = WmRvsScheme::ParseKeyPayload(key.payload);
    if (!parsed.ok()) return;
    options_ = std::move(parsed).value();
    valid_ = true;
  }

  DetectResult Detect(const Histogram& suspect,
                      const DetectOptions& options) const override {
    if (!valid_) return DetectResult{};
    return DetectWmRvs(suspect, options_, options);
  }

 private:
  WmRvsOptions options_;
  bool valid_ = false;
};

}  // namespace

WmRvsScheme::WmRvsScheme(WmRvsOptions options) : options_(options) {}

std::string WmRvsScheme::name() const { return "wm-rvs"; }

std::string WmRvsScheme::SerializeKeyPayload(const WmRvsOptions& options) {
  std::ostringstream out;
  out << kKeyMagic << '\n';
  out << "key_seed " << options.key_seed << '\n';
  out << "max_digit_position " << options.max_digit_position << '\n';
  out << "bits " << BitsToString(options.watermark_bits) << '\n';
  return out.str();
}

Result<WmRvsOptions> WmRvsScheme::ParseKeyPayload(
    const std::string& payload) {
  FREQYWM_ASSIGN_OR_RETURN(auto fields, ParseKeyFields(payload, kKeyMagic));
  WmRvsOptions options;
  FREQYWM_ASSIGN_OR_RETURN(
      options.key_seed, RequireNumericField(fields, "key_seed", ParseU64));
  FREQYWM_ASSIGN_OR_RETURN(
      uint64_t position,
      RequireNumericField(fields, "max_digit_position", ParseU64));
  if (position > 18) {
    return Status::Corruption("max_digit_position out of range");
  }
  options.max_digit_position = static_cast<int>(position);
  FREQYWM_ASSIGN_OR_RETURN(std::string bits, RequireField(fields, "bits"));
  FREQYWM_ASSIGN_OR_RETURN(options.watermark_bits, ParseBitString(bits));
  return options;
}

namespace {

/// Assembles the outcome of embedding (or re-embedding) under `options`:
/// report statistics are measured against `baseline` — the original for
/// `Embed`, the drifted input for `Refresh`.
EmbedOutcome MakeOutcome(const Histogram& baseline, Histogram watermarked,
                         const WmRvsSideTable& side_table,
                         const WmRvsOptions& options) {
  EmbedOutcome out;
  out.key = SchemeKey{"wm-rvs", WmRvsScheme::SerializeKeyPayload(options)};
  out.report.embedded_units = side_table.entries.size();
  out.report.eligible_units = baseline.num_tokens();
  out.report.similarity_percent =
      HistogramSimilarityPercent(baseline, watermarked);
  for (const auto& e : baseline.entries()) {
    auto count = watermarked.CountOf(e.token);
    if (!count) continue;
    out.report.total_churn += *count > e.count ? *count - e.count
                                               : e.count - *count;
  }
  out.watermarked = std::move(watermarked);
  return out;
}

}  // namespace

Result<EmbedOutcome> WmRvsScheme::Embed(const Histogram& original,
                                        const ExecContext& exec) const {
  FREQYWM_RETURN_NOT_OK(exec.CheckInterrupted());
  if (original.empty()) {
    return Status::InvalidArgument("cannot watermark an empty histogram");
  }
  WmRvsSideTable side_table;
  Histogram watermarked = EmbedWmRvs(original, options_, &side_table, exec);
  return MakeOutcome(original, std::move(watermarked), side_table, options_);
}

Result<EmbedOutcome> WmRvsScheme::Refresh(const Histogram& drifted,
                                          const SchemeKey& key) const {
  if (key.scheme != "wm-rvs") {
    return Status::InvalidArgument("key belongs to scheme '" + key.scheme +
                                   "'");
  }
  if (drifted.empty()) {
    return Status::InvalidArgument("cannot refresh an empty histogram");
  }
  FREQYWM_ASSIGN_OR_RETURN(WmRvsOptions keyed, ParseKeyPayload(key.payload));
  // Re-embedding under the key overwrites each decodable token's keyed
  // substitution digit, realigning whatever drift touched; the report's
  // churn/similarity measure the realignment cost against the drifted
  // input. The refreshed key equals the input key (the digit key never
  // rotates), so existing escrowed copies keep verifying.
  WmRvsSideTable side_table;
  Histogram refreshed = EmbedWmRvs(drifted, keyed, &side_table);
  return MakeOutcome(drifted, std::move(refreshed), side_table, keyed);
}

std::unique_ptr<PreparedKey> WmRvsScheme::Prepare(const SchemeKey& key) const {
  return std::make_unique<WmRvsPreparedKey>(key);
}

}  // namespace freqywm
