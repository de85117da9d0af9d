#ifndef FREQYWM_API_FREQYWM_SCHEME_H_
#define FREQYWM_API_FREQYWM_SCHEME_H_

#include <string>

#include "api/scheme.h"
#include "core/incremental.h"
#include "core/options.h"

namespace freqywm {

/// `WatermarkScheme` implementation of FreqyWM itself, wrapping
/// `WatermarkGenerator` (embed), `DetectWatermark` (detect) and
/// `RefreshWatermark` (incremental maintenance). The key payload is
/// `WatermarkSecrets::Serialize()` — existing secret files remain valid.
///
/// Factory id: "freqywm".
class FreqyWmScheme : public WatermarkScheme {
 public:
  explicit FreqyWmScheme(GenerateOptions options = {},
                         RefreshOptions refresh_options = {});

  std::string name() const override;
  using WatermarkScheme::Embed;
  /// Exec-aware embed: the eligible-pair scan shards across the pool
  /// (DESIGN.md §8); byte-identical output at any thread count.
  Result<EmbedOutcome> Embed(const Histogram& original,
                             const ExecContext& exec) const override;
  /// Parses the key and derives its `PairModulusTable` once; the prepared
  /// key then detects hash-free (count gather + residue checks), on a
  /// suspect histogram or on dense counts (DESIGN.md §10). Its
  /// recommended options are t = 0 and k = max(1, |Lwm|/2).
  std::unique_ptr<PreparedKey> Prepare(const SchemeKey& key) const override;
  Result<EmbedOutcome> Refresh(const Histogram& drifted,
                               const SchemeKey& key) const override;

  const GenerateOptions& options() const { return options_; }

 protected:
  /// `seed + 0x517cc1b727220a95` when seeded; unseeded, a digest of the
  /// key payload, which holds the fresh secret R.
  uint64_t dataset_transform_seed(const SchemeKey& key) const override;

 private:
  GenerateOptions options_;
  RefreshOptions refresh_options_;
};

}  // namespace freqywm

#endif  // FREQYWM_API_FREQYWM_SCHEME_H_
