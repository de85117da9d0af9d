#ifndef FREQYWM_API_WM_OBT_SCHEME_H_
#define FREQYWM_API_WM_OBT_SCHEME_H_

#include <string>

#include "api/scheme.h"
#include "baselines/wm_obt.h"

namespace freqywm {

/// `WatermarkScheme` implementation of the WM-OBT baseline (Shehab et al.),
/// giving the paper's §IV-D comparison scheme the full embed/detect
/// lifecycle the seed lacked: the key payload carries the secret partition
/// key, bit string, reference condition and decode threshold, so a suspect
/// histogram can be verified through the same call path as FreqyWM.
///
/// Factory id: "wm-obt".
class WmObtScheme : public WatermarkScheme {
 public:
  explicit WmObtScheme(WmObtOptions options = {});

  std::string name() const override;
  using WatermarkScheme::Embed;
  /// Exec-aware embed: the per-partition genetic optimization shards
  /// across the pool (deterministic per-partition RNG streams, DESIGN.md
  /// §9); byte-identical output at any thread count.
  Result<EmbedOutcome> Embed(const Histogram& original,
                             const ExecContext& exec) const override;
  /// Parses the key payload once; the prepared key then detects without
  /// re-parsing. Its recommended options are k = 2, t = 1 for every key.
  std::unique_ptr<PreparedKey> Prepare(const SchemeKey& key) const override;

  const WmObtOptions& options() const { return options_; }

  /// Key payload (de)serialization, exposed for tests.
  static std::string SerializeKeyPayload(const WmObtOptions& options);
  static Result<WmObtOptions> ParseKeyPayload(const std::string& payload);

 protected:
  uint64_t dataset_transform_seed(const SchemeKey& /*key*/) const override {
    return options_.key_seed;
  }

 private:
  WmObtOptions options_;
};

}  // namespace freqywm

#endif  // FREQYWM_API_WM_OBT_SCHEME_H_
