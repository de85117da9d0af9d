#ifndef FREQYWM_CORE_SECRETS_H_
#define FREQYWM_CORE_SECRETS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "crypto/secret.h"
#include "data/token.h"

namespace freqywm {

/// One entry of the watermarked pair list `Lwm`: an *ordered* token pair
/// (the more frequent token at generation time first — the order matters
/// because the modulus derivation is asymmetric).
struct SecretPair {
  Token token_i;
  Token token_j;

  friend bool operator==(const SecretPair& a, const SecretPair& b) {
    return a.token_i == b.token_i && a.token_j == b.token_j;
  }
};

/// The owner's secret list `Lsc = {Lwm, R, z}` (Table I). This is exactly
/// what must be stored after generation and presented at detection; it is
/// also what a seller would escrow per-buyer in an immutable index for the
/// leak-tracing use case (§I).
struct WatermarkSecrets {
  std::vector<SecretPair> pairs;
  WatermarkSecret r;
  uint64_t z = 0;

  /// Serializes to a line-oriented text format (tokens hex-encoded so any
  /// byte content round-trips).
  std::string Serialize() const;

  /// Parses the output of `Serialize`. Fails with `Corruption` on malformed
  /// input, which includes a self-pair (`token_i == token_j`) and an exact
  /// repeat of an earlier `(token_i, token_j)`: both would verify without
  /// any watermark in the data.
  static Result<WatermarkSecrets> Deserialize(const std::string& text);

  /// Saves to / loads from a file.
  Status SaveToFile(const std::string& path) const;
  static Result<WatermarkSecrets> LoadFromFile(const std::string& path);

  friend bool operator==(const WatermarkSecrets& a,
                         const WatermarkSecrets& b) {
    return a.pairs == b.pairs && a.r == b.r && a.z == b.z;
  }
};

}  // namespace freqywm

#endif  // FREQYWM_CORE_SECRETS_H_
