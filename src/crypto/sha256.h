#ifndef FREQYWM_CRYPTO_SHA256_H_
#define FREQYWM_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace freqywm {

/// Incremental SHA-256 (FIPS 180-4), implemented from scratch.
///
/// The paper instantiates the collision-resistant hash `H` with SHA-256;
/// this is the only cryptographic primitive FreqyWM needs. The
/// implementation is verified against the NIST CAVP short-message vectors
/// in `tests/crypto/sha256_test.cc`.
///
/// Blocks are compressed with the x86 SHA extensions when the CPU has
/// them and in portable C++ otherwise (`crypto/sha256_compress.h`,
/// DESIGN.md §16); both give the same digest.
///
/// Usage:
/// \code
///   Sha256 h;
///   h.Update(data, len);
///   auto digest = h.Finish();   // 32 bytes
/// \endcode
///
/// The state is a copyable *midstate*: copying a `Sha256` snapshots the
/// absorbed prefix, and the copy can absorb more data and finish
/// independently of the original (clone-after-absorb). The eligible-pair
/// scan's per-pair outer hash does not use this object: its 32-byte
/// suffix has a fixed place, so `PairModulus::OuterState` pre-pads the
/// final block and pays only bare compressions per pair.
class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;
  using Digest = std::array<uint8_t, kDigestSize>;

  Sha256();
  Sha256(const Sha256&) = default;
  Sha256& operator=(const Sha256&) = default;

  /// Absorbs `len` bytes. May be called any number of times before Finish.
  void Update(const uint8_t* data, size_t len);

  /// Convenience overload for string data.
  void Update(std::string_view data);

  /// Completes the hash and returns the 32-byte digest. The object must not
  /// be reused afterwards (construct a fresh `Sha256` or keep a midstate
  /// copy taken before the call).
  Digest Finish();

  /// One-shot digest of `data`.
  static Digest Hash(std::string_view data);

  /// One-shot digest of a byte vector.
  static Digest Hash(const std::vector<uint8_t>& data);

  /// One-shot digest returned as lowercase hex (for tests and serialization).
  static std::string HexDigest(std::string_view data);

 private:
  uint32_t state_[8];
  uint64_t bit_count_;
  uint8_t buffer_[64];
  size_t buffer_len_;
};

/// Interprets the first 8 digest bytes as a big-endian integer. This is how
/// FreqyWM reduces a digest to a number before the `mod z` step.
uint64_t DigestPrefixU64(const Sha256::Digest& digest);

}  // namespace freqywm

#endif  // FREQYWM_CRYPTO_SHA256_H_
