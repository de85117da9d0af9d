#ifndef FREQYWM_CRYPTO_PAIR_MODULUS_H_
#define FREQYWM_CRYPTO_PAIR_MODULUS_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "crypto/secret.h"
#include "crypto/sha256.h"

namespace freqywm {

/// Derives the per-pair modulus `s_ij = H(tk_i || H(R || tk_j)) mod z`.
///
/// This is the keyed quantity at the heart of FreqyWM: the watermark
/// embedding rule forces `(f_i - f_j) mod s_ij == 0`, and only a holder of
/// `R` can recompute `s_ij` for a pair. The digest prefix (first 8 bytes,
/// big-endian) is reduced modulo `z`.
///
/// Note the derivation is intentionally *asymmetric* in (i, j): the pair is
/// always keyed with the higher-ranked token first, matching the paper's
/// ordered pair list `Lwm`.
///
/// Preconditions: `z >= 2` (modulo 0 is undefined and modulo 1 is always 0,
/// paper §III-B1). The returned value lies in `[0, z)`; values 0 and 1 make
/// the pair ineligible and are filtered by `core::BuildEligiblePairs`.
class PairModulus {
 public:
  /// Creates a derivation context bound to secret `R` and bound `z`.
  PairModulus(const WatermarkSecret& secret, uint64_t z);

  /// Computes `s_ij` for an ordered token pair.
  uint64_t Compute(std::string_view token_i, std::string_view token_j) const;

  /// Precomputes the inner digest `H(R || tk_j)`. Bulk pair scans (the
  /// O(n^2) eligible-pair construction) cache one inner digest per token,
  /// halving the hash work.
  Sha256::Digest InnerDigest(std::string_view token_j) const;

  /// Computes `s_ij` given a precomputed inner digest for `token_j`.
  uint64_t ComputeWithInner(std::string_view token_i,
                            const Sha256::Digest& inner_j) const;

  /// The outer hash `H(tk_i || ·)` prepared for one `tk_i`. The O(n^2)
  /// eligible-pair scan keeps one per outer token. Construction absorbs
  /// `tk_i`'s full 64-byte blocks into a midstate and pre-pads the final
  /// block(s): `tk_i`'s tail bytes, a 32-byte hole for the inner digest,
  /// 0x80, zeros and the message bit length. That is one block when
  /// `len(tk_i) mod 64 <= 23`, otherwise two. Each pair then costs a copy
  /// of the inner digest into the hole and one or two bare compressions.
  /// Copyable and immutable after construction; safe to share across
  /// threads.
  class OuterState {
   public:
    /// `s_ij` for this state's `tk_i` and a precomputed inner digest —
    /// byte-identical to `ComputeWithInner(tk_i, inner_j)`.
    uint64_t Reduce(const Sha256::Digest& inner_j) const;

   private:
    friend class PairModulus;
    OuterState(std::string_view token_i, uint64_t z);

    uint32_t midstate_[8];
    /// The padded final block(s), the inner digest's bytes left as zeros.
    uint8_t tail_[128];
    /// Offset of the inner digest in `tail_`.
    size_t hole_;
    /// 64 or 128: the bytes of `tail_` to compress.
    size_t tail_size_;
    uint64_t z_;
  };

  /// Builds the outer-hash midstate for `token_i`.
  OuterState OuterFor(std::string_view token_i) const {
    return OuterState(token_i, z_);
  }

  /// The modulus bound `z`.
  uint64_t z() const { return z_; }

 private:
  std::string r_bytes_;
  uint64_t z_;
};

}  // namespace freqywm

#endif  // FREQYWM_CRYPTO_PAIR_MODULUS_H_
