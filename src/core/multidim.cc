#include "core/multidim.h"

#include "core/detect.h"
#include "crypto/sha256.h"
#include "data/histogram.h"

namespace freqywm {

Result<TableGenerateResult> WatermarkTable(
    const TableDataset& table, const std::vector<std::string>& token_columns,
    const GenerateOptions& options) {
  FREQYWM_ASSIGN_OR_RETURN(Dataset projected,
                           table.ProjectTokens(token_columns));
  Histogram original = Histogram::FromDataset(projected);

  WatermarkGenerator generator(options);
  FREQYWM_ASSIGN_OR_RETURN(HistogramGenerateResult hist_result,
                           generator.GenerateFromHistogram(original));

  Rng rng(options.seed == 0
              ? DigestPrefixU64(
                    Sha256::Hash(hist_result.report.secrets.r.ToHex()))
              : options.seed + 0x2545F4914F6CDD1DULL);

  TableGenerateResult out{table, std::move(hist_result.report)};
  for (const auto& e : hist_result.watermarked.entries()) {
    auto orig_count = original.CountOf(e.token);
    int64_t have = orig_count ? static_cast<int64_t>(*orig_count) : 0;
    int64_t want = static_cast<int64_t>(e.count);
    if (want > have) {
      FREQYWM_RETURN_NOT_OK(out.watermarked.ReplicateTokenRows(
          token_columns, e.token, static_cast<size_t>(want - have), rng));
    } else if (want < have) {
      FREQYWM_ASSIGN_OR_RETURN(
          size_t removed,
          out.watermarked.RemoveTokenRows(
              token_columns, e.token, static_cast<size_t>(have - want), rng));
      if (removed != static_cast<size_t>(have - want)) {
        return Status::Internal("could not remove enough rows for token '" +
                                e.token + "'");
      }
    }
  }
  return out;
}

Result<DetectResult> DetectTableWatermark(
    const TableDataset& table, const std::vector<std::string>& token_columns,
    const WatermarkSecrets& secrets, const DetectOptions& options) {
  FREQYWM_ASSIGN_OR_RETURN(Dataset projected,
                           table.ProjectTokens(token_columns));
  return DetectWatermark(Histogram::FromDataset(projected), secrets,
                         options);
}

}  // namespace freqywm
