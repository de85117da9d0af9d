#include "crypto/sha256_compress.h"

#ifdef FREQYWM_SHA256_HAVE_SHA_NI
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace freqywm {
namespace sha256_internal {
namespace {

alignas(16) constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

// The 64 rounds over a message schedule whose first 16 words are set.
void PortableRounds(uint32_t state[8], uint32_t w[64]) {
  for (int i = 16; i < 64; ++i) {
    uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
    uint32_t ch = (e & f) ^ (~e & g);
    uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
    uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
    uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

void CompressPortableWords(uint32_t state[8], const uint32_t words[16]) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) w[i] = words[i];
  PortableRounds(state, w);
}

}  // namespace

void CompressPortable(uint32_t state[8], const uint8_t* block) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<uint32_t>(block[i * 4]) << 24) |
           (static_cast<uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<uint32_t>(block[i * 4 + 2]) << 8) |
           static_cast<uint32_t>(block[i * 4 + 3]);
  }
  PortableRounds(state, w);
}

#ifdef FREQYWM_SHA256_HAVE_SHA_NI
// SHA-NI keeps the working variables as two lanes of four, ABEF and CDGH;
// each _mm_sha256rnds2_epu32 runs two rounds, and msg1/msg2 extend the
// message schedule four words at a time.
namespace {

// `input` is either the block's 64 bytes (kBytes) or its 16 words, already
// decoded from big-endian.
template <bool kBytes>
__attribute__((target("sha,sse4.1,ssse3"))) inline void ShaNiRounds(
    uint32_t state[8], const void* input) {
  // Big-endian words to little-endian lanes.
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
  const __m128i abef_in = abef;
  const __m128i cdgh_in = cdgh;

  // msg[g & 3] holds schedule words W[4g .. 4g+3] of round group g.
  __m128i msg[4];
  for (int g = 0; g < 4; ++g) {
    msg[g] = _mm_loadu_si128(static_cast<const __m128i*>(input) + g);
    if constexpr (kBytes) msg[g] = _mm_shuffle_epi8(msg[g], byte_swap);
  }
  for (int g = 0; g < 16; ++g) {
    const __m128i k =
        _mm_load_si128(reinterpret_cast<const __m128i*>(kK + 4 * g));
    __m128i wk = _mm_add_epi32(msg[g & 3], k);
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    wk = _mm_shuffle_epi32(wk, 0x0E);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
    if (g < 12) {
      // W[t..t+3] for t = 4(g+4): sigma0 over group g+1 onto group g, plus
      // W[t-7..t-4], then sigma1 over the two words before each.
      __m128i next = _mm_sha256msg1_epu32(msg[g & 3], msg[(g + 1) & 3]);
      next = _mm_add_epi32(
          next, _mm_alignr_epi8(msg[(g + 3) & 3], msg[(g + 2) & 3], 4));
      msg[g & 3] = _mm_sha256msg2_epu32(next, msg[(g + 3) & 3]);
    }
  }

  abef = _mm_add_epi32(abef, abef_in);
  cdgh = _mm_add_epi32(cdgh, cdgh_in);
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}

__attribute__((target("sha,sse4.1,ssse3"))) void CompressShaNiWords(
    uint32_t state[8], const uint32_t words[16]) {
  ShaNiRounds<false>(state, words);
}

}  // namespace

__attribute__((target("sha,sse4.1,ssse3"))) void CompressShaNi(
    uint32_t state[8], const uint8_t* block) {
  ShaNiRounds<true>(state, block);
}

namespace {

// Sixteen messages side by side: each zmm register holds one 32-bit word
// of all 16 lanes, so every FIPS 180-4 step is one vector instruction for
// 16 messages. vprord does the rotations; vpternlogd computes Ch
// (truth table 0xCA, e ? f : g), Maj (0xE8) and a three-way XOR (0x96)
// in one instruction each.
using Lanes = __m512i;

__attribute__((target("avx512f"))) inline Lanes Add(Lanes x, Lanes y) {
  return _mm512_add_epi32(x, y);
}

__attribute__((target("avx512f"))) inline Lanes Xor3(Lanes x, Lanes y,
                                                     Lanes z) {
  return _mm512_ternarylogic_epi32(x, y, z, 0x96);
}

// Rotations and shifts use the zero-masking forms with all 16 lanes
// enabled, the same instructions: GCC 12's unmasked forms merge into a
// deliberately undefined vector that -Wuninitialized reports (GCC bug
// 105593).
template <int N>
__attribute__((target("avx512f"))) inline Lanes Rotr(Lanes x) {
  return _mm512_maskz_ror_epi32(0xFFFF, x, N);
}

template <unsigned N>
__attribute__((target("avx512f"))) inline Lanes Shr(Lanes x) {
  return _mm512_maskz_srli_epi32(0xFFFF, x, N);
}

// Σ0, Σ1 (the round functions) and σ0, σ1 (the message schedule).
__attribute__((target("avx512f"))) inline Lanes BigSigma0(Lanes a) {
  return Xor3(Rotr<2>(a), Rotr<13>(a), Rotr<22>(a));
}

__attribute__((target("avx512f"))) inline Lanes BigSigma1(Lanes e) {
  return Xor3(Rotr<6>(e), Rotr<11>(e), Rotr<25>(e));
}

__attribute__((target("avx512f"))) inline Lanes SmallSigma0(Lanes w) {
  return Xor3(Rotr<7>(w), Rotr<18>(w), Shr<3>(w));
}

__attribute__((target("avx512f"))) inline Lanes SmallSigma1(Lanes w) {
  return Xor3(Rotr<17>(w), Rotr<19>(w), Shr<10>(w));
}

// One round, with the working words renamed instead of moved: d takes
// d + T1 (the next e) and h takes T1 + T2 (the next a). `kw` is K[t] + W[t].
__attribute__((target("avx512f"))) inline void Round(Lanes a, Lanes b,
                                                     Lanes c, Lanes& d,
                                                     Lanes e, Lanes f,
                                                     Lanes g, Lanes& h,
                                                     Lanes kw) {
  const Lanes t1 = Add(Add(h, BigSigma1(e)),
                       Add(_mm512_ternarylogic_epi32(e, f, g, 0xCA), kw));
  d = Add(d, t1);
  h = Add(t1, Add(BigSigma0(a), _mm512_ternarylogic_epi32(a, b, c, 0xE8)));
}

// W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16], in the ring w[t & 15].
__attribute__((target("avx512f"))) inline void Expand(Lanes* w, int i) {
  w[i] = Add(Add(w[i], SmallSigma0(w[(i + 1) & 15])),
             Add(w[(i + 9) & 15], SmallSigma1(w[(i + 14) & 15])));
}

// K[t] + W[t] for round t = base + i.
__attribute__((target("avx512f"))) inline Lanes KW(const Lanes* w, int base,
                                                   int i) {
  return Add(w[i], _mm512_set1_epi32(static_cast<int>(kK[base + i])));
}

}  // namespace

__attribute__((target("avx512f"))) void CompressAvx512x16(
    uint32_t state[8][kLanes], const uint32_t words[16][kLanes],
    unsigned lanes) {
  const __mmask16 mask = static_cast<__mmask16>((1u << lanes) - 1);
  Lanes w[16];
  for (int i = 0; i < 16; ++i) w[i] = _mm512_maskz_loadu_epi32(mask, words[i]);
  Lanes in[8];
  for (int k = 0; k < 8; ++k) in[k] = _mm512_maskz_loadu_epi32(mask, state[k]);
  Lanes a = in[0], b = in[1], c = in[2], d = in[3];
  Lanes e = in[4], f = in[5], g = in[6], h = in[7];

  for (int base = 0; base < 64; base += 16) {
    if (base > 0) {
      // The next 16 schedule words, in order: each reads only words
      // already replaced or still due.
      Expand(w, 0);
      Expand(w, 1);
      Expand(w, 2);
      Expand(w, 3);
      Expand(w, 4);
      Expand(w, 5);
      Expand(w, 6);
      Expand(w, 7);
      Expand(w, 8);
      Expand(w, 9);
      Expand(w, 10);
      Expand(w, 11);
      Expand(w, 12);
      Expand(w, 13);
      Expand(w, 14);
      Expand(w, 15);
    }
    // Every index into w is a constant, so w stays in registers.
    Round(a, b, c, d, e, f, g, h, KW(w, base, 0));
    Round(h, a, b, c, d, e, f, g, KW(w, base, 1));
    Round(g, h, a, b, c, d, e, f, KW(w, base, 2));
    Round(f, g, h, a, b, c, d, e, KW(w, base, 3));
    Round(e, f, g, h, a, b, c, d, KW(w, base, 4));
    Round(d, e, f, g, h, a, b, c, KW(w, base, 5));
    Round(c, d, e, f, g, h, a, b, KW(w, base, 6));
    Round(b, c, d, e, f, g, h, a, KW(w, base, 7));
    Round(a, b, c, d, e, f, g, h, KW(w, base, 8));
    Round(h, a, b, c, d, e, f, g, KW(w, base, 9));
    Round(g, h, a, b, c, d, e, f, KW(w, base, 10));
    Round(f, g, h, a, b, c, d, e, KW(w, base, 11));
    Round(e, f, g, h, a, b, c, d, KW(w, base, 12));
    Round(d, e, f, g, h, a, b, c, KW(w, base, 13));
    Round(c, d, e, f, g, h, a, b, KW(w, base, 14));
    Round(b, c, d, e, f, g, h, a, KW(w, base, 15));
  }

  const Lanes out[8] = {a, b, c, d, e, f, g, h};
  for (int k = 0; k < 8; ++k) {
    _mm512_mask_storeu_epi32(state[k], mask, Add(in[k], out[k]));
  }
}
#endif

bool CpuHasAvx512F() {
#ifdef FREQYWM_SHA256_HAVE_SHA_NI
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  // OSXSAVE: the OS manages extended state, so XGETBV is usable.
  if (!((ecx >> 27) & 1)) return false;
  unsigned int xcr0 = 0, xcr0_high = 0;
  __asm__("xgetbv" : "=a"(xcr0), "=d"(xcr0_high) : "c"(0));
  // XCR0 bits the OS must save: SSE (1), AVX (2), the opmask registers
  // (5), the upper halves of ZMM0-15 (6) and ZMM16-31 (7). The CPUID bit
  // alone does not say the OS preserves them across context switches.
  constexpr unsigned int kZmmState = 0xE6;
  if ((xcr0 & kZmmState) != kZmmState) return false;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return (ebx >> 16) & 1;
#else
  return false;
#endif
}

bool CpuHasShaNi() {
#ifdef FREQYWM_SHA256_HAVE_SHA_NI
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool ssse3 = (ecx >> 9) & 1;
  const bool sse41 = (ecx >> 19) & 1;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  const bool sha = (ebx >> 29) & 1;
  return ssse3 && sse41 && sha;
#else
  return false;
#endif
}

namespace {

using CompressFn = void (*)(uint32_t*, const uint8_t*);
using WordsFn = void (*)(uint32_t*, const uint32_t*);
using LanesFn = void (*)(uint32_t (*)[kLanes], const uint32_t (*)[kLanes],
                         unsigned);

CompressFn PickCompress() {
#ifdef FREQYWM_SHA256_HAVE_SHA_NI
  if (CpuHasShaNi()) return CompressShaNi;
#endif
  return CompressPortable;
}

WordsFn PickCompressWords() {
#ifdef FREQYWM_SHA256_HAVE_SHA_NI
  if (CpuHasShaNi()) return CompressShaNiWords;
#endif
  return CompressPortableWords;
}

// The fallback of `CompressLanes`: one `CompressWords` per lane.
void CompressLanesOneByOne(uint32_t state[8][kLanes],
                           const uint32_t words[16][kLanes], unsigned lanes) {
  for (unsigned l = 0; l < lanes; ++l) {
    uint32_t lane_state[8];
    uint32_t lane_words[16];
    for (int k = 0; k < 8; ++k) lane_state[k] = state[k][l];
    for (int i = 0; i < 16; ++i) lane_words[i] = words[i][l];
    CompressWords(lane_state, lane_words);
    for (int k = 0; k < 8; ++k) state[k][l] = lane_state[k];
  }
}

LanesFn PickLanes() {
#ifdef FREQYWM_SHA256_HAVE_SHA_NI
  if (CpuHasAvx512F()) return CompressAvx512x16;
#endif
  return CompressLanesOneByOne;
}

}  // namespace

void Compress(uint32_t state[8], const uint8_t* block) {
  static const CompressFn compress = PickCompress();
  compress(state, block);
}

void CompressWords(uint32_t state[8], const uint32_t words[16]) {
  static const WordsFn compress = PickCompressWords();
  compress(state, words);
}

void CompressLanes(uint32_t state[8][kLanes],
                   const uint32_t words[16][kLanes], unsigned lanes) {
  static const LanesFn compress = PickLanes();
  compress(state, words, lanes);
}

const char* LaneKernelName() {
  if (CpuHasAvx512F()) return "avx512x16";
  return CpuHasShaNi() ? "sha-ni" : "portable";
}

}  // namespace sha256_internal
}  // namespace freqywm
