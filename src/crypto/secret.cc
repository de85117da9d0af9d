#include "crypto/secret.h"

#include <random>

#include "common/hex.h"
#include "crypto/sha256.h"

namespace freqywm {

std::string WatermarkSecret::ToHex() const { return HexEncode(r); }

Result<WatermarkSecret> WatermarkSecret::FromHex(const std::string& hex) {
  FREQYWM_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, HexDecode(hex));
  if (bytes.empty()) {
    return Status::Corruption("empty watermark secret");
  }
  return WatermarkSecret{std::move(bytes)};
}

WatermarkSecret GenerateSecret(size_t lambda_bits, uint64_t deterministic_seed) {
  // Rounds up without `lambda_bits + 7`, which wraps near SIZE_MAX.
  size_t n_bytes = lambda_bits / 8 + (lambda_bits % 8 != 0);
  if (n_bytes == 0) n_bytes = 1;
  std::vector<uint8_t> out;
  out.reserve(n_bytes);

  // Stretch seed material through SHA-256 in counter mode. For the
  // non-deterministic path the seed blocks come from std::random_device.
  std::vector<uint8_t> seed_block(40, 0);
  if (deterministic_seed != 0) {
    for (int i = 0; i < 8; ++i) {
      seed_block[i] = static_cast<uint8_t>(deterministic_seed >> (8 * i));
    }
  } else {
    std::random_device rd;
    for (size_t i = 0; i + 3 < seed_block.size(); i += 4) {
      uint32_t v = rd();
      seed_block[i] = static_cast<uint8_t>(v);
      seed_block[i + 1] = static_cast<uint8_t>(v >> 8);
      seed_block[i + 2] = static_cast<uint8_t>(v >> 16);
      seed_block[i + 3] = static_cast<uint8_t>(v >> 24);
    }
  }

  uint32_t counter = 0;
  while (out.size() < n_bytes) {
    Sha256 h;
    h.Update(seed_block.data(), seed_block.size());
    uint8_t ctr[4] = {static_cast<uint8_t>(counter >> 24),
                      static_cast<uint8_t>(counter >> 16),
                      static_cast<uint8_t>(counter >> 8),
                      static_cast<uint8_t>(counter)};
    h.Update(ctr, 4);
    Sha256::Digest d = h.Finish();
    for (uint8_t b : d) {
      if (out.size() == n_bytes) break;
      out.push_back(b);
    }
    ++counter;
  }
  return WatermarkSecret{std::move(out)};
}

}  // namespace freqywm
