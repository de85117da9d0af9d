#ifndef FREQYWM_CRYPTO_SHA256_COMPRESS_H_
#define FREQYWM_CRYPTO_SHA256_COMPRESS_H_

#include <cstdint>

// Internal to crypto/: the SHA-256 block compression behind `Sha256` and
// `PairModulus::OuterState` (which compresses its pre-padded final blocks
// directly, one pair at a time or 16 pairs per call). Exposed in a header
// so those two and the tests and benches can drive each path; other
// library code goes through `Sha256`.

// x86: the SHA-NI and AVX-512 kernels are compiled; CPUID picks among
// them at run time.
#if defined(__x86_64__) || defined(__i386__)
#define FREQYWM_SHA256_HAVE_SHA_NI 1
#endif

namespace freqywm {
namespace sha256_internal {

/// The SHA-256 initial hash value H(0) (FIPS 180-4 §5.3.3).
inline constexpr uint32_t kInitialState[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

/// Compresses one 64-byte block into `state` (FIPS 180-4 §6.2.2) in plain
/// C++. Runs on every target; the fallback wherever SHA-NI is missing.
void CompressPortable(uint32_t state[8], const uint8_t* block);

#ifdef FREQYWM_SHA256_HAVE_SHA_NI
/// Same contract as `CompressPortable`, on the x86 SHA extensions. Call it
/// only when `CpuHasShaNi()` is true.
void CompressShaNi(uint32_t state[8], const uint8_t* block);
#endif

/// True when this CPU executes SHA-NI and the SSSE3/SSE4.1 shuffles and
/// blends around it (CPUID leaf 7 EBX bit 29, leaf 1 ECX bits 9 and 19).
/// Always false on non-x86 targets.
bool CpuHasShaNi();

/// The compression `Sha256` uses: `CompressShaNi` when `CpuHasShaNi()`,
/// otherwise `CompressPortable`. The choice is made once per process.
void Compress(uint32_t state[8], const uint8_t* block);

/// `Compress` on a block given as its 16 message words, already decoded
/// from big-endian.
void CompressWords(uint32_t state[8], const uint32_t words[16]);

/// Lanes per call of the multi-message compression below.
inline constexpr unsigned kLanes = 16;

#ifdef FREQYWM_SHA256_HAVE_SHA_NI
/// Compresses `lanes` (1..16) independent one-block messages at once, one
/// per 32-bit lane of an AVX-512 register. Column-major: lane l's state is
/// `state[0..7][l]` and its message words are `words[0..15][l]`. Lanes at
/// and above `lanes` are neither read nor written. Call it only when
/// `CpuHasAvx512F()` is true.
void CompressAvx512x16(uint32_t state[8][kLanes],
                       const uint32_t words[16][kLanes], unsigned lanes);
#endif

/// True when this CPU executes AVX-512F and the OS saves its registers:
/// CPUID leaf 7 EBX bit 16, leaf 1 ECX bit 27 (OSXSAVE), and XGETBV(0)
/// with the SSE, AVX, opmask and both upper-ZMM state bits (1, 2, 5-7)
/// set. Always false on non-x86 targets.
bool CpuHasAvx512F();

/// The multi-message compression the eligible-pair scan uses, with the
/// layout of `CompressAvx512x16`: that kernel when `CpuHasAvx512F()`,
/// otherwise `CompressWords` once per lane. Chosen once per process.
void CompressLanes(uint32_t state[8][kLanes],
                   const uint32_t words[16][kLanes], unsigned lanes);

/// The kernel behind `CompressLanes`: "avx512x16", "sha-ni" or "portable".
const char* LaneKernelName();

}  // namespace sha256_internal
}  // namespace freqywm

#endif  // FREQYWM_CRYPTO_SHA256_COMPRESS_H_
