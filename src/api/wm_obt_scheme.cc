#include "api/wm_obt_scheme.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <utility>

#include "api/key_util.h"
#include "stats/similarity.h"

namespace freqywm {

namespace {

constexpr char kKeyMagic[] = "wm-obt-key v1";

/// The verdict settings of every WM-OBT key, malformed ones too. The
/// bit-string evidence is all-or-nothing: demand at least two decoded
/// partitions and allow a single wrongly-decoded one (embedding can leave
/// a sparse partition on the wrong side of the threshold).
DetectOptions RecommendedOptions() {
  DetectOptions options;
  options.min_pairs = 2;
  options.pair_threshold = 1;
  return options;
}

/// The prepared detector: the key payload parsed once. An unparsable or
/// foreign key leaves `valid_` false and rejects every suspect. There is no
/// `TokenVocabulary`: WM-OBT's evidence is the keyed partition statistic
/// over *every* suspect token, so the batch engine uses the histogram
/// `Detect` (DESIGN.md §10).
class WmObtPreparedKey : public PreparedKey {
 public:
  explicit WmObtPreparedKey(const SchemeKey& key)
      : PreparedKey(key, RecommendedOptions()) {
    if (key.scheme != "wm-obt") return;
    auto parsed = WmObtScheme::ParseKeyPayload(key.payload);
    if (!parsed.ok()) return;
    options_ = std::move(parsed).value();
    valid_ = true;
  }

  DetectResult Detect(const Histogram& suspect,
                      const DetectOptions& options) const override {
    if (!valid_) return DetectResult{};
    return DetectWmObt(suspect, options_, options);
  }

 private:
  WmObtOptions options_;
  bool valid_ = false;
};

}  // namespace

WmObtScheme::WmObtScheme(WmObtOptions options) : options_(options) {}

std::string WmObtScheme::name() const { return "wm-obt"; }

std::string WmObtScheme::SerializeKeyPayload(const WmObtOptions& options) {
  std::ostringstream out;
  out << kKeyMagic << '\n';
  out << "key_seed " << options.key_seed << '\n';
  out << "num_partitions " << options.num_partitions << '\n';
  out << "condition " << FormatDouble(options.condition) << '\n';
  out << "decode_threshold " << FormatDouble(options.decode_threshold)
      << '\n';
  out << "bits " << BitsToString(options.watermark_bits) << '\n';
  return out.str();
}

Result<WmObtOptions> WmObtScheme::ParseKeyPayload(
    const std::string& payload) {
  FREQYWM_ASSIGN_OR_RETURN(auto fields, ParseKeyFields(payload, kKeyMagic));
  WmObtOptions options;  // GA parameters keep defaults: detect never embeds
  FREQYWM_ASSIGN_OR_RETURN(
      options.key_seed, RequireNumericField(fields, "key_seed", ParseU64));
  FREQYWM_ASSIGN_OR_RETURN(
      options.num_partitions,
      RequireNumericField(fields, "num_partitions", ParseU64));
  // Detect must reject a corrupt count, never crash on its allocation.
  if (options.num_partitions == 0 ||
      options.num_partitions > kWmObtMaxPartitions) {
    return Status::Corruption("num_partitions out of range");
  }
  FREQYWM_ASSIGN_OR_RETURN(
      options.condition,
      RequireNumericField(fields, "condition", ParseFiniteDouble));
  FREQYWM_ASSIGN_OR_RETURN(
      options.decode_threshold,
      RequireNumericField(fields, "decode_threshold", ParseFiniteDouble));
  FREQYWM_ASSIGN_OR_RETURN(std::string bits, RequireField(fields, "bits"));
  FREQYWM_ASSIGN_OR_RETURN(options.watermark_bits, ParseBitString(bits));
  return options;
}

Result<EmbedOutcome> WmObtScheme::Embed(const Histogram& original,
                                        const ExecContext& exec) const {
  FREQYWM_RETURN_NOT_OK(exec.CheckInterrupted());
  if (original.empty()) {
    return Status::InvalidArgument("cannot watermark an empty histogram");
  }
  Histogram watermarked = EmbedWmObt(original, options_, exec);
  // An interruption mid-GA breaks the evolution loops early; the
  // histogram above is then partial and must not escape as a success.
  FREQYWM_RETURN_NOT_OK(exec.CheckInterrupted());

  // Calibrate the decode threshold from this embedding: the hiding
  // statistic is nearly scale-invariant, so the achievable bit-0/bit-1
  // separation depends on the dataset. The midpoint between the highest
  // bit-0 and the lowest bit-1 partition statistic decodes this embedding
  // exactly; it ships inside the key (the paper's 0.0966 was likewise an
  // empirical constant of their embedding run).
  WmObtOptions keyed = options_;
  std::vector<double> stats = WmObtPartitionStatistics(watermarked, keyed);
  {
    double lo_max = -1.0, hi_min = 2.0;
    for (size_t p = 0; p < stats.size(); ++p) {
      if (stats[p] < 0) continue;
      int bit = keyed.watermark_bits[p % keyed.watermark_bits.size()];
      if (bit == 1) {
        hi_min = std::min(hi_min, stats[p]);
      } else {
        lo_max = std::max(lo_max, stats[p]);
      }
    }
    if (lo_max >= 0.0 && hi_min <= 1.0) {
      keyed.decode_threshold = (lo_max + hi_min) / 2.0;
    }
  }

  EmbedOutcome out;
  out.key = SchemeKey{"wm-obt", SerializeKeyPayload(keyed)};
  out.report.eligible_units = options_.num_partitions;
  // Embedding never adds or removes tokens, so the watermarked stats also
  // tell which partitions were non-empty in the original.
  for (double stat : stats) {
    if (stat >= 0) ++out.report.embedded_units;  // non-empty partition
  }
  out.report.similarity_percent =
      HistogramSimilarityPercent(original, watermarked);
  for (const auto& e : original.entries()) {
    auto count = watermarked.CountOf(e.token);
    if (!count) continue;
    out.report.total_churn += *count > e.count ? *count - e.count
                                               : e.count - *count;
  }
  out.watermarked = std::move(watermarked);
  return out;
}

std::unique_ptr<PreparedKey> WmObtScheme::Prepare(const SchemeKey& key) const {
  return std::make_unique<WmObtPreparedKey>(key);
}

}  // namespace freqywm
