#include "crypto/sha256.h"

#include <cstring>

#include "common/hex.h"
#include "crypto/sha256_compress.h"

namespace freqywm {

Sha256::Sha256() : bit_count_(0), buffer_len_(0) {
  std::memcpy(state_, sha256_internal::kInitialState, sizeof(state_));
}

void Sha256::Update(const uint8_t* data, size_t len) {
  bit_count_ += static_cast<uint64_t>(len) * 8;
  while (len > 0) {
    size_t take = 64 - buffer_len_;
    if (take > len) take = len;
    std::memcpy(buffer_ + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ == 64) {
      sha256_internal::Compress(state_, buffer_);
      buffer_len_ = 0;
    }
  }
}

void Sha256::Update(std::string_view data) {
  Update(reinterpret_cast<const uint8_t*>(data.data()), data.size());
}

Sha256::Digest Sha256::Finish() {
  // Pad: 0x80, zeros, 64-bit big-endian length — written with block-sized
  // memsets directly into the buffer (the byte-wise Update loop this
  // replaces dominated the per-pair cost of bulk keyed-hash scans).
  const uint64_t bits = bit_count_;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    // The length field does not fit this block: zero-fill, flush, start a
    // fresh padding-only block.
    std::memset(buffer_ + buffer_len_, 0, 64 - buffer_len_);
    sha256_internal::Compress(state_, buffer_);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bits >> (56 - i * 8));
  }
  sha256_internal::Compress(state_, buffer_);

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<uint8_t>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<uint8_t>(state_[i]);
  }
  return out;
}

Sha256::Digest Sha256::Hash(std::string_view data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

Sha256::Digest Sha256::Hash(const std::vector<uint8_t>& data) {
  Sha256 h;
  h.Update(data.data(), data.size());
  return h.Finish();
}

std::string Sha256::HexDigest(std::string_view data) {
  Digest d = Hash(data);
  return HexEncode(d.data(), d.size());
}

uint64_t DigestPrefixU64(const Sha256::Digest& digest) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | digest[i];
  return v;
}

}  // namespace freqywm
