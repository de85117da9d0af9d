#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/hex.h"
#include "common/random.h"
#include "crypto/sha256_compress.h"

namespace freqywm {
namespace {

// NIST FIPS 180-4 / CAVP short-message vectors.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(Sha256::HexDigest(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(Sha256::HexDigest("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(Sha256::HexDigest(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, LongMillionA) {
  std::string input(1000000, 'a');
  EXPECT_EQ(Sha256::HexDigest(input),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, FoxSentence) {
  EXPECT_EQ(Sha256::HexDigest("The quick brown fox jumps over the lazy dog"),
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592");
}

// Exercise the padding boundary cases: messages of length 55, 56, 63, 64
// hit the different pad paths (length fits / does not fit the final block).
TEST(Sha256Test, PaddingBoundaries) {
  EXPECT_EQ(Sha256::HexDigest(std::string(55, 'x')),
            Sha256::HexDigest(std::string(55, 'x')));
  std::string len55(55, 'a'), len56(56, 'a'), len63(63, 'a'), len64(64, 'a');
  // Distinct lengths must hash differently.
  EXPECT_NE(Sha256::HexDigest(len55), Sha256::HexDigest(len56));
  EXPECT_NE(Sha256::HexDigest(len56), Sha256::HexDigest(len63));
  EXPECT_NE(Sha256::HexDigest(len63), Sha256::HexDigest(len64));
}

// Known vector at the 56-byte boundary (CAVP).
TEST(Sha256Test, Exactly64Bytes) {
  std::string input(64, 'a');
  EXPECT_EQ(Sha256::HexDigest(input),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string data =
      "FreqyWM hides a secret in the appearance frequency of tokens";
  Sha256 h;
  // Feed in awkward chunk sizes to cross block boundaries.
  size_t pos = 0;
  size_t chunk = 1;
  while (pos < data.size()) {
    size_t take = std::min(chunk, data.size() - pos);
    h.Update(data.substr(pos, take));
    pos += take;
    chunk = chunk * 2 + 1;
  }
  Sha256::Digest inc = h.Finish();
  Sha256::Digest once = Sha256::Hash(data);
  EXPECT_EQ(inc, once);
}

// Midstate clone-after-absorb (the per-pair hot path of eligible-pair
// enumeration): splitting any message into prefix/suffix, absorbing the
// prefix once and finishing clones over the suffix must reproduce the
// one-shot digest — including splits that straddle block boundaries.
TEST(Sha256Test, MidstateCloneMatchesOneShotAtEverySplit) {
  // > 2 blocks so splits cover buffered, block-aligned and mid-block
  // midstates.
  std::string data;
  for (int i = 0; i < 150; ++i) data.push_back(static_cast<char>('a' + i % 26));
  const Sha256::Digest once = Sha256::Hash(data);
  for (size_t split = 0; split <= data.size(); ++split) {
    Sha256 prefix;
    prefix.Update(std::string_view(data).substr(0, split));
    Sha256 clone = prefix;  // midstate snapshot
    clone.Update(std::string_view(data).substr(split));
    EXPECT_EQ(clone.Finish(), once) << "split at " << split;
  }
}

// One midstate, many suffixes: each cloned finish is independent and the
// original midstate stays reusable.
TEST(Sha256Test, MidstateIsReusableAcrossManySuffixes) {
  Sha256 midstate;
  midstate.Update("shared-prefix|");
  for (int k = 0; k < 20; ++k) {
    std::string suffix = "suffix-" + std::to_string(k);
    Sha256 clone = midstate;
    clone.Update(suffix);
    EXPECT_EQ(clone.Finish(), Sha256::Hash("shared-prefix|" + suffix));
  }
  // The midstate itself was never finished; finishing a final clone still
  // matches the prefix-only digest.
  EXPECT_EQ(Sha256(midstate).Finish(), Sha256::Hash("shared-prefix|"));
}

// NIST vector through the midstate path: clone of an "abc" midstate must
// produce the canonical digest.
TEST(Sha256Test, MidstateCloneReproducesNistVector) {
  Sha256 h;
  h.Update("ab");
  Sha256 clone = h;
  clone.Update("c");
  Sha256::Digest d = clone.Finish();
  std::string hex;
  for (uint8_t b : d) {
    static const char* k = "0123456789abcdef";
    hex.push_back(k[b >> 4]);
    hex.push_back(k[b & 0xf]);
  }
  EXPECT_EQ(hex,
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, VectorOverloadMatchesStringOverload) {
  std::string s = "bytes";
  std::vector<uint8_t> v(s.begin(), s.end());
  EXPECT_EQ(Sha256::Hash(s), Sha256::Hash(v));
}

TEST(Sha256Test, DigestPrefixU64IsBigEndian) {
  Sha256::Digest d{};
  d[0] = 0x01;
  d[7] = 0xff;
  EXPECT_EQ(DigestPrefixU64(d), 0x01000000000000ffULL);
}

// Regression guard (DESIGN.md §11): every prefix byte has its top bit
// set, so any implicit promotion to signed int inside the byte-fold
// (`v << 8 | digest[i]`) would be UB the CI UBSan job catches — the fold
// must stay in uint64_t the whole way.
TEST(Sha256Test, DigestPrefixU64HighBitBytesStayUnsigned) {
  Sha256::Digest d{};
  for (size_t i = 0; i < 8; ++i) d[i] = 0xff;
  EXPECT_EQ(DigestPrefixU64(d), 0xffffffffffffffffULL);
  d[0] = 0x80;
  EXPECT_EQ(DigestPrefixU64(d), 0x80ffffffffffffffULL);
}

TEST(Sha256Test, AvalancheOneBitFlip) {
  Sha256::Digest a = Sha256::Hash("token-a");
  Sha256::Digest b = Sha256::Hash("token-b");
  int differing_bits = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    differing_bits += __builtin_popcount(a[i] ^ b[i]);
  }
  // ~128 expected for an ideal hash; anything above 80 shows diffusion.
  EXPECT_GT(differing_bits, 80);
}

// ---------------------------------------------------------------------------
// The two block compressions behind Sha256, driven directly: the portable
// one stays tested on CPUs where Sha256 itself dispatches to SHA-NI.
// ---------------------------------------------------------------------------

using CompressFn = void (*)(uint32_t*, const uint8_t*);

// Full FIPS 180-4 hash of `message` through one compression function.
std::string HexDigestWith(CompressFn compress, const std::string& message) {
  uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::vector<uint8_t> padded(message.begin(), message.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const uint64_t bits = static_cast<uint64_t>(message.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<uint8_t>(bits >> (8 * i)));
  }
  for (size_t off = 0; off < padded.size(); off += 64) {
    compress(state, padded.data() + off);
  }
  uint8_t digest[32];
  for (int i = 0; i < 8; ++i) {
    for (int b = 0; b < 4; ++b) {
      digest[4 * i + b] = static_cast<uint8_t>(state[i] >> (24 - 8 * b));
    }
  }
  return HexEncode(digest, sizeof(digest));
}

struct NistVector {
  std::string message;
  const char* hex;
};

std::vector<NistVector> NistVectors() {
  return {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {std::string(64, 'a'),
       "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
}

TEST(Sha256CompressTest, PortableReproducesNistVectors) {
  for (const NistVector& v : NistVectors()) {
    EXPECT_EQ(HexDigestWith(sha256_internal::CompressPortable, v.message),
              v.hex)
        << "message length " << v.message.size();
  }
}

#ifdef FREQYWM_SHA256_HAVE_SHA_NI
TEST(Sha256CompressTest, ShaNiReproducesNistVectors) {
  if (!sha256_internal::CpuHasShaNi()) GTEST_SKIP() << "CPU lacks SHA-NI";
  for (const NistVector& v : NistVectors()) {
    EXPECT_EQ(HexDigestWith(sha256_internal::CompressShaNi, v.message), v.hex)
        << "message length " << v.message.size();
  }
}

TEST(Sha256CompressTest, ShaNiMatchesPortableOnRandomBlocks) {
  if (!sha256_internal::CpuHasShaNi()) GTEST_SKIP() << "CPU lacks SHA-NI";
  Rng rng(180);
  uint8_t block[64];
  for (int trial = 0; trial < 100000; ++trial) {
    uint32_t portable[8];
    for (uint32_t& word : portable) {
      word = static_cast<uint32_t>(rng.NextU64());
    }
    for (size_t i = 0; i < sizeof(block); i += 8) {
      const uint64_t r = rng.NextU64();
      std::memcpy(block + i, &r, 8);
    }
    uint32_t sha_ni[8];
    std::memcpy(sha_ni, portable, sizeof(portable));
    sha256_internal::CompressPortable(portable, block);
    sha256_internal::CompressShaNi(sha_ni, block);
    ASSERT_EQ(std::memcmp(portable, sha_ni, sizeof(portable)), 0)
        << "trial " << trial;
  }
}
#endif

// ---------------------------------------------------------------------------
// The 16-lane compression: every active lane must equal CompressPortable
// on that lane's (state, block), and lanes past `lanes` stay untouched.
// ---------------------------------------------------------------------------

using LanesFn = void (*)(uint32_t (*)[sha256_internal::kLanes],
                         const uint32_t (*)[sha256_internal::kLanes],
                         unsigned);

void ExpectLanesMatchPortable(LanesFn compress, uint64_t seed, int trials) {
  constexpr unsigned kLanes = sha256_internal::kLanes;
  Rng rng(seed);
  for (int trial = 0; trial < trials; ++trial) {
    const unsigned lanes = 1 + trial % kLanes;
    // One random midstate broadcast to every lane, as the pair scan's
    // first block has it, or a random state per lane, as its second.
    const bool broadcast = trial % 2 == 0;
    uint32_t state[8][kLanes];
    uint32_t words[16][kLanes];
    for (auto& row : state) {
      const auto shared = static_cast<uint32_t>(rng.NextU64());
      for (uint32_t& word : row) {
        word = broadcast ? shared : static_cast<uint32_t>(rng.NextU64());
      }
    }
    for (auto& row : words) {
      for (uint32_t& word : row) word = static_cast<uint32_t>(rng.NextU64());
    }
    uint32_t expected[8][kLanes];
    std::memcpy(expected, state, sizeof(state));
    for (unsigned l = 0; l < lanes; ++l) {
      uint32_t lane_state[8];
      uint8_t block[64];
      for (int k = 0; k < 8; ++k) lane_state[k] = state[k][l];
      for (int i = 0; i < 16; ++i) {
        for (int b = 0; b < 4; ++b) {
          block[4 * i + b] = static_cast<uint8_t>(words[i][l] >> (24 - 8 * b));
        }
      }
      sha256_internal::CompressPortable(lane_state, block);
      for (int k = 0; k < 8; ++k) expected[k][l] = lane_state[k];
    }
    compress(state, words, lanes);
    ASSERT_EQ(std::memcmp(expected, state, sizeof(state)), 0)
        << "trial " << trial << ", " << lanes << " lanes";
  }
}

TEST(Sha256CompressTest, DispatchedLanesMatchPortable) {
  ExpectLanesMatchPortable(sha256_internal::CompressLanes, 181, 4000);
}

TEST(Sha256CompressTest, CompressWordsMatchesByteBlocks) {
  Rng rng(182);
  for (int trial = 0; trial < 1000; ++trial) {
    uint32_t words[16];
    uint8_t block[64];
    for (int i = 0; i < 16; ++i) {
      words[i] = static_cast<uint32_t>(rng.NextU64());
      for (int b = 0; b < 4; ++b) {
        block[4 * i + b] = static_cast<uint8_t>(words[i] >> (24 - 8 * b));
      }
    }
    uint32_t from_words[8];
    uint32_t from_bytes[8];
    for (int k = 0; k < 8; ++k) {
      from_words[k] = from_bytes[k] = static_cast<uint32_t>(rng.NextU64());
    }
    sha256_internal::CompressWords(from_words, words);
    sha256_internal::CompressPortable(from_bytes, block);
    ASSERT_EQ(std::memcmp(from_words, from_bytes, sizeof(from_words)), 0)
        << "trial " << trial;
  }
}

#ifdef FREQYWM_SHA256_HAVE_SHA_NI
TEST(Sha256CompressTest, Avx512x16MatchesPortableOnRandomBlocks) {
  if (!sha256_internal::CpuHasAvx512F()) {
    GTEST_SKIP() << "CPU lacks AVX-512F";
  }
  ExpectLanesMatchPortable(sha256_internal::CompressAvx512x16, 183, 20000);
}

TEST(Sha256CompressTest, Avx512x16ReproducesNistVectors) {
  if (!sha256_internal::CpuHasAvx512F()) {
    GTEST_SKIP() << "CPU lacks AVX-512F";
  }
  // Every NIST message in its own lane, block by block; shorter messages'
  // lanes keep their final state while the longer ones go on.
  constexpr unsigned kLanes = sha256_internal::kLanes;
  const std::vector<NistVector> vectors = NistVectors();
  std::vector<std::vector<uint8_t>> padded;
  size_t max_blocks = 0;
  for (const NistVector& v : vectors) {
    std::vector<uint8_t> p(v.message.begin(), v.message.end());
    p.push_back(0x80);
    while (p.size() % 64 != 56) p.push_back(0);
    const uint64_t bits = static_cast<uint64_t>(v.message.size()) * 8;
    for (int i = 7; i >= 0; --i) p.push_back(static_cast<uint8_t>(bits >> (8 * i)));
    max_blocks = std::max(max_blocks, p.size() / 64);
    padded.push_back(std::move(p));
  }
  // Lanes are packed longest message first, so the active lanes of each
  // block are a prefix.
  std::vector<size_t> order(vectors.size());
  for (size_t v = 0; v < order.size(); ++v) order[v] = v;
  std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    return padded[x].size() > padded[y].size();
  });
  uint32_t state[8][kLanes] = {};
  for (size_t l = 0; l < order.size(); ++l) {
    for (int k = 0; k < 8; ++k) {
      state[k][l] = sha256_internal::kInitialState[k];
    }
  }
  for (size_t block = 0; block < max_blocks; ++block) {
    uint32_t words[16][kLanes] = {};
    unsigned lanes = 0;
    for (size_t l = 0; l < order.size(); ++l) {
      const std::vector<uint8_t>& p = padded[order[l]];
      if (p.size() / 64 <= block) break;
      ++lanes;
      for (int i = 0; i < 16; ++i) {
        const uint8_t* at = p.data() + 64 * block + 4 * i;
        words[i][l] = (static_cast<uint32_t>(at[0]) << 24) |
                      (static_cast<uint32_t>(at[1]) << 16) |
                      (static_cast<uint32_t>(at[2]) << 8) | at[3];
      }
    }
    sha256_internal::CompressAvx512x16(state, words, lanes);
  }
  for (size_t l = 0; l < order.size(); ++l) {
    uint8_t digest[32];
    for (int k = 0; k < 8; ++k) {
      for (int b = 0; b < 4; ++b) {
        digest[4 * k + b] = static_cast<uint8_t>(state[k][l] >> (24 - 8 * b));
      }
    }
    EXPECT_EQ(HexEncode(digest, sizeof(digest)), vectors[order[l]].hex)
        << "message length " << vectors[order[l]].message.size();
  }
}
#endif

}  // namespace
}  // namespace freqywm
