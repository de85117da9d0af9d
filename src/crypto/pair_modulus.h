#ifndef FREQYWM_CRYPTO_PAIR_MODULUS_H_
#define FREQYWM_CRYPTO_PAIR_MODULUS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

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

  /// Inner digests `H(R || tk_j)` of a token list, stored column-major as
  /// big-endian-decoded words: `word(k)[p]` is word k (0..7) of token p's
  /// digest. `OuterState::ReduceBatch` reads 16 consecutive tokens of a
  /// column as one message word of 16 lanes.
  class InnerColumns {
   public:
    /// Tokens per `OuterState::ReduceBatch` call.
    static constexpr size_t kBatch = 16;

    /// Each column ends with `kBatch - 1` zero words, so a batch starting
    /// at any token reads 16 words in bounds.
    explicit InnerColumns(size_t tokens)
        : tokens_(tokens),
          stride_(tokens + kBatch - 1),
          words_(8 * stride_) {}

    /// Stores token `p`'s digest. Distinct `p` may be set concurrently.
    void Set(size_t p, const Sha256::Digest& digest);

    const uint32_t* word(size_t k) const {
      return words_.data() + k * stride_;
    }
    size_t size() const { return tokens_; }

   private:
    size_t tokens_;
    size_t stride_;
    std::vector<uint32_t> words_;
  };

  /// The outer hash `H(tk_i || ·)` prepared for one `tk_i`. The O(n^2)
  /// eligible-pair scan keeps one per outer token. Construction absorbs
  /// `tk_i`'s full 64-byte blocks into a midstate and pre-pads the final
  /// block(s) as message words: `tk_i`'s tail bytes, a 32-byte hole for
  /// the inner digest, 0x80, zeros and the message bit length. That is one
  /// block when `len(tk_i) mod 64 <= 23`, otherwise two. Each pair then
  /// costs ORing the inner digest's words into the hole (shifted when the
  /// hole starts mid-word) and one or two bare compressions, which
  /// `ReduceBatch` runs for 16 pairs at once.
  /// Copyable and immutable after construction; safe to share across
  /// threads.
  class OuterState {
   public:
    /// `s_ij` for this state's `tk_i` and a precomputed inner digest —
    /// byte-identical to `ComputeWithInner(tk_i, inner_j)`. One pair
    /// through `sha256_internal::CompressWords`.
    uint64_t Reduce(const Sha256::Digest& inner_j) const;

    /// `out[l]` = `Reduce` of token `first + l`'s inner digest in `inner`,
    /// for `l < count` and 1 <= count <= `InnerColumns::kBatch`. One call
    /// of `sha256_internal::CompressLanes` per block: 16 lanes of AVX-512
    /// where the CPU has it, a loop of per-pair compressions elsewhere.
    void ReduceBatch(const InnerColumns& inner, size_t first, size_t count,
                     uint64_t out[InnerColumns::kBatch]) const;

   private:
    friend class PairModulus;
    OuterState(std::string_view token_i, uint64_t z,
               unsigned __int128 z_reciprocal);

    uint32_t midstate_[8];
    /// The final block(s) as big-endian words, zero where the inner digest
    /// goes.
    uint32_t tail_[32];
    /// Byte offset of the inner digest in the final block(s).
    uint32_t hole_;
    /// 1 or 2: the blocks of `tail_` to compress.
    uint32_t blocks_;
    uint64_t z_;
    unsigned __int128 z_reciprocal_;
  };

  /// Builds the outer-hash midstate for `token_i`.
  OuterState OuterFor(std::string_view token_i) const {
    return OuterState(token_i, z_, z_reciprocal_);
  }

  /// The modulus bound `z`.
  uint64_t z() const { return z_; }

 private:
  std::string r_bytes_;
  uint64_t z_;
  /// ceil(2^128 / z): `OuterState::ReduceBatch` reduces mod z with it
  /// instead of a division.
  unsigned __int128 z_reciprocal_;
};

}  // namespace freqywm

#endif  // FREQYWM_CRYPTO_PAIR_MODULUS_H_
