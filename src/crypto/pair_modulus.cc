#include "crypto/pair_modulus.h"

#include <cassert>
#include <cstring>

#include "crypto/sha256.h"
#include "crypto/sha256_compress.h"

namespace freqywm {
namespace {

static_assert(PairModulus::InnerColumns::kBatch == sha256_internal::kLanes);

uint32_t LoadBigEndian(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

/// `x mod z` for any 64-bit x and 2 <= z < 2^64, without a division
/// (Lemire, Kaser and Kurz, "Faster remainder by direct computation",
/// 2019): with `reciprocal = ceil(2^128 / z)`, the remainder is the top
/// 64 bits of the 192-bit product `((reciprocal * x) mod 2^128) * z`.
uint64_t ModByReciprocal(uint64_t x, uint64_t z,
                         unsigned __int128 reciprocal) {
  const unsigned __int128 fraction = reciprocal * x;
  const unsigned __int128 low =
      (fraction & ~uint64_t{0}) * static_cast<unsigned __int128>(z);
  const unsigned __int128 high =
      (fraction >> 64) * static_cast<unsigned __int128>(z);
  return static_cast<uint64_t>((high + (low >> 64)) >> 64);
}

/// One message word of all 16 lanes of a batch. GCC and Clang lower the
/// vector operations to what the target has (four SSE2 operations each on
/// baseline x86-64). A vector type may alias its element type, so an array
/// of them is also the `uint32_t[n][16]` that `CompressLanes` reads.
using LaneWord =
    uint32_t __attribute__((vector_size(4 * sha256_internal::kLanes)));

/// ORs the inner digest words `inner[0..7]` into message words whose
/// inner-digest bytes are zero. Digest word k fills bytes
/// `hole + 4k .. hole + 4k + 3`; when the hole starts mid-word it straddles
/// two message words. `Word` is one lane (`uint32_t`) or 16 (`LaneWord`).
template <typename Word>
void InsertInner(Word* words, const Word* inner, uint32_t hole) {
  const size_t first_word = hole / 4;
  const unsigned shift = hole % 4 * 8;
  for (size_t k = 0; k < 8; ++k) {
    if (shift == 0) {
      words[first_word + k] |= inner[k];
    } else {
      words[first_word + k] |= inner[k] >> shift;
      words[first_word + k + 1] |= inner[k] << (32 - shift);
    }
  }
}

}  // namespace

PairModulus::PairModulus(const WatermarkSecret& secret, uint64_t z)
    : r_bytes_(secret.r.begin(), secret.r.end()),
      z_(z),
      z_reciprocal_(~static_cast<unsigned __int128>(0) / z + 1) {
  assert(z_ >= 2 && "modulo 0 is undefined and modulo 1 is always 0");
}

uint64_t PairModulus::Compute(std::string_view token_i,
                              std::string_view token_j) const {
  return ComputeWithInner(token_i, InnerDigest(token_j));
}

Sha256::Digest PairModulus::InnerDigest(std::string_view token_j) const {
  Sha256 inner;
  inner.Update(r_bytes_);
  inner.Update(token_j);
  return inner.Finish();
}

uint64_t PairModulus::ComputeWithInner(std::string_view token_i,
                                       const Sha256::Digest& inner_j) const {
  Sha256 outer;
  outer.Update(token_i);
  outer.Update(inner_j.data(), inner_j.size());
  Sha256::Digest outer_digest = outer.Finish();
  return DigestPrefixU64(outer_digest) % z_;
}

void PairModulus::InnerColumns::Set(size_t p, const Sha256::Digest& digest) {
  for (size_t k = 0; k < 8; ++k) {
    words_[k * stride_ + p] = LoadBigEndian(digest.data() + 4 * k);
  }
}

PairModulus::OuterState::OuterState(std::string_view token_i, uint64_t z,
                                    unsigned __int128 z_reciprocal)
    : z_(z), z_reciprocal_(z_reciprocal) {
  // The midstate after tk_i's full blocks.
  std::memcpy(midstate_, sha256_internal::kInitialState, sizeof(midstate_));
  const auto* bytes = reinterpret_cast<const uint8_t*>(token_i.data());
  const size_t full = token_i.size() / 64 * 64;
  for (size_t off = 0; off < full; off += 64) {
    sha256_internal::Compress(midstate_, bytes + off);
  }

  // The final block(s): tail | inner digest | 0x80 | zeros | bit length.
  const size_t tail = token_i.size() - full;
  hole_ = static_cast<uint32_t>(tail);
  blocks_ = tail + Sha256::kDigestSize + 1 + 8 <= 64 ? 1 : 2;
  uint8_t padded[128] = {};
  if (tail > 0) std::memcpy(padded, bytes + full, tail);
  padded[hole_ + Sha256::kDigestSize] = 0x80;
  const uint64_t bits =
      (static_cast<uint64_t>(token_i.size()) + Sha256::kDigestSize) * 8;
  for (int i = 0; i < 8; ++i) {
    padded[64 * blocks_ - 8 + i] = static_cast<uint8_t>(bits >> (56 - i * 8));
  }
  for (size_t q = 0; q < 32; ++q) tail_[q] = LoadBigEndian(padded + 4 * q);
}

uint64_t PairModulus::OuterState::Reduce(const Sha256::Digest& inner_j) const {
  uint32_t inner[8];
  for (size_t k = 0; k < 8; ++k) {
    inner[k] = LoadBigEndian(inner_j.data() + 4 * k);
  }
  uint32_t words[32];
  std::memcpy(words, tail_, sizeof(words));
  InsertInner(words, inner, hole_);

  uint32_t state[8];
  std::memcpy(state, midstate_, sizeof(state));
  sha256_internal::CompressWords(state, words);
  if (blocks_ == 2) sha256_internal::CompressWords(state, words + 16);
  // The digest's first 8 bytes, big-endian, are state words 0 and 1.
  return ((static_cast<uint64_t>(state[0]) << 32) | state[1]) % z_;
}

void PairModulus::OuterState::ReduceBatch(
    const InnerColumns& inner, size_t first, size_t count,
    uint64_t out[InnerColumns::kBatch]) const {
  constexpr size_t kLanes = InnerColumns::kBatch;
  assert(count >= 1 && count <= kLanes && first + count <= inner.size());
  // All 16 lanes are filled (a column's zero padding covers the lanes past
  // the last token); only the first `count` are compressed and read.
  LaneWord digests[8];
  for (size_t k = 0; k < 8; ++k) {
    std::memcpy(&digests[k], inner.word(k) + first, sizeof(LaneWord));
  }
  LaneWord words[32];
  for (size_t q = 0; q < 16 * blocks_; ++q) words[q] = LaneWord{} + tail_[q];
  InsertInner(words, digests, hole_);
  LaneWord state[8];
  for (size_t k = 0; k < 8; ++k) state[k] = LaneWord{} + midstate_[k];

  auto* state_rows = reinterpret_cast<uint32_t(*)[kLanes]>(state);
  const auto* word_rows = reinterpret_cast<const uint32_t(*)[kLanes]>(words);
  const auto lanes = static_cast<unsigned>(count);
  sha256_internal::CompressLanes(state_rows, word_rows, lanes);
  if (blocks_ == 2) {
    sha256_internal::CompressLanes(state_rows, word_rows + 16, lanes);
  }
  for (size_t l = 0; l < count; ++l) {
    out[l] = ModByReciprocal(
        (static_cast<uint64_t>(state_rows[0][l]) << 32) | state_rows[1][l],
        z_, z_reciprocal_);
  }
}

}  // namespace freqywm
