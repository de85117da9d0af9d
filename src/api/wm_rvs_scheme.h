#ifndef FREQYWM_API_WM_RVS_SCHEME_H_
#define FREQYWM_API_WM_RVS_SCHEME_H_

#include <string>

#include "api/scheme.h"
#include "baselines/wm_rvs.h"

namespace freqywm {

/// `WatermarkScheme` implementation of the WM-RVS baseline (Li et al.),
/// adding the detect path the seed lacked: the key payload carries the
/// digit key and bit string, and a suspect token verifies when its count
/// holds the keyed substitution digit.
///
/// Note the reversibility side-table is deliberately NOT part of the key:
/// it recovers the original data and is the owner's private undo log, not
/// detection evidence. Call `EmbedWmRvs` directly when it is needed.
///
/// Factory id: "wm-rvs".
class WmRvsScheme : public WatermarkScheme {
 public:
  explicit WmRvsScheme(WmRvsOptions options = {});

  std::string name() const override;
  using WatermarkScheme::Embed;
  /// Exec-aware embed: the per-token keyed-hash pass fans out across the
  /// pool; byte-identical output (and side effects) at any thread count.
  Result<EmbedOutcome> Embed(const Histogram& original,
                             const ExecContext& exec) const override;
  /// Parses the key payload once; the prepared key then detects without
  /// re-parsing. Its recommended options are k = 4 for every key.
  std::unique_ptr<PreparedKey> Prepare(const SchemeKey& key) const override;

  /// WM-RVS refresh = re-embed under the key (DESIGN.md §6 parity gap):
  /// embedding *sets* each token's keyed substitution digit outright, so a
  /// drifted digit needs no explicit revert — re-embedding the drifted
  /// histogram restores every decodable token's watermark digit while
  /// leaving already-aligned counts untouched (idempotent on clean data).
  Result<EmbedOutcome> Refresh(const Histogram& drifted,
                               const SchemeKey& key) const override;

  const WmRvsOptions& options() const { return options_; }

  /// Key payload (de)serialization, exposed for tests.
  static std::string SerializeKeyPayload(const WmRvsOptions& options);
  static Result<WmRvsOptions> ParseKeyPayload(const std::string& payload);

 protected:
  uint64_t dataset_transform_seed(const SchemeKey& /*key*/) const override {
    return options_.key_seed;
  }

 private:
  WmRvsOptions options_;
};

}  // namespace freqywm

#endif  // FREQYWM_API_WM_RVS_SCHEME_H_
