#include "crypto/pair_modulus.h"

#include <cassert>
#include <cstring>

#include "crypto/sha256.h"
#include "crypto/sha256_compress.h"

namespace freqywm {

PairModulus::PairModulus(const WatermarkSecret& secret, uint64_t z)
    : r_bytes_(secret.r.begin(), secret.r.end()), z_(z) {
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

PairModulus::OuterState::OuterState(std::string_view token_i, uint64_t z)
    : z_(z) {
  // The midstate after tk_i's full blocks.
  std::memcpy(midstate_, sha256_internal::kInitialState, sizeof(midstate_));
  const auto* bytes = reinterpret_cast<const uint8_t*>(token_i.data());
  const size_t full = token_i.size() / 64 * 64;
  for (size_t off = 0; off < full; off += 64) {
    sha256_internal::Compress(midstate_, bytes + off);
  }

  // The final block(s): tail | inner digest | 0x80 | zeros | bit length.
  const size_t tail = token_i.size() - full;
  hole_ = tail;
  tail_size_ = tail + Sha256::kDigestSize + 1 + 8 <= 64 ? 64 : 128;
  std::memset(tail_, 0, sizeof(tail_));
  if (tail > 0) std::memcpy(tail_, bytes + full, tail);
  tail_[hole_ + Sha256::kDigestSize] = 0x80;
  const uint64_t bits =
      (static_cast<uint64_t>(token_i.size()) + Sha256::kDigestSize) * 8;
  for (int i = 0; i < 8; ++i) {
    tail_[tail_size_ - 8 + i] = static_cast<uint8_t>(bits >> (56 - i * 8));
  }
}

uint64_t PairModulus::OuterState::Reduce(const Sha256::Digest& inner_j) const {
  uint32_t state[8];
  std::memcpy(state, midstate_, sizeof(state));
  uint8_t block[128];
  std::memcpy(block, tail_, tail_size_);
  std::memcpy(block + hole_, inner_j.data(), inner_j.size());
  sha256_internal::Compress(state, block);
  if (tail_size_ == 128) sha256_internal::Compress(state, block + 64);
  // The digest's first 8 bytes, big-endian, are state words 0 and 1.
  return ((static_cast<uint64_t>(state[0]) << 32) | state[1]) % z_;
}

}  // namespace freqywm
