#ifndef FREQYWM_CORE_DETECT_H_
#define FREQYWM_CORE_DETECT_H_

#include <cstdint>
#include <vector>

#include "core/options.h"
#include "core/secrets.h"
#include "data/histogram.h"

namespace freqywm {

/// Outcome of `WmDetect` (Algorithm II).
struct DetectResult {
  /// True when at least `min_pairs` (k) stored pairs were verified.
  bool accepted = false;
  /// Pairs of Lwm whose both tokens were present in the suspect data.
  size_t pairs_found = 0;
  /// Pairs whose residue passed the threshold test.
  size_t pairs_verified = 0;
  /// pairs_verified / |Lwm| (0 when Lwm is empty); the "success rate"
  /// series plotted in Figs. 4 and 5.
  double verified_fraction = 0.0;

  /// Exact equality — the batch detection engine's determinism contract is
  /// element-wise identity with the serial path, fractions included.
  friend bool operator==(const DetectResult& a, const DetectResult& b) {
    return a.accepted == b.accepted && a.pairs_found == b.pairs_found &&
           a.pairs_verified == b.pairs_verified &&
           a.verified_fraction == b.verified_fraction;
  }
  friend bool operator!=(const DetectResult& a, const DetectResult& b) {
    return !(a == b);
  }
};

/// Key-side detection state derived once per key and reused across any
/// number of suspects (DESIGN.md §8): every stored pair's modulus
/// `s_ij = H(tk_i || H(R || tk_j)) mod z`, plus the key's distinct-token
/// list so detection gathers each token's suspect-side count exactly once
/// even when a token appears in many stored pairs.
///
/// The derivation reuses crypto midstates: one inner digest per distinct
/// `token_j`, one outer-hash midstate per distinct `token_i`, one cloned
/// finish per pair. Each modulus also stores its fastmod multiplier, so
/// the per-cell residue needs no division (DESIGN.md §18). The table
/// depends only on the key (never on a suspect), is immutable after
/// `Build`, and is safe to share across threads — `BatchDetector` builds
/// one per key so the |suspects| × |keys| matrix derives each modulus
/// exactly once instead of once per cell.
class PairModulusTable {
 public:
  /// One stored pair: indices into `tokens()`, the derived modulus, and
  /// its division-free reduction multiplier `FastModMultiplier(s)`.
  struct PairEntry {
    uint32_t token_i = 0;
    uint32_t token_j = 0;
    uint64_t s = 0;
    uint64_t magic = 0;
  };

  /// Empty, invalid table (detection against it rejects, matching
  /// `DetectWatermark` on malformed secrets).
  PairModulusTable() = default;

  /// Derives the table from `secrets`. Invalid secrets (`z < 2` or no
  /// pairs) yield an invalid table.
  static PairModulusTable Build(const WatermarkSecrets& secrets);

  bool valid() const { return valid_; }
  /// |Lwm| — the denominator of `verified_fraction`.
  size_t num_pairs() const { return pairs_.size(); }
  /// Distinct tokens appearing in any stored pair, in first-seen order.
  const std::vector<Token>& tokens() const { return tokens_; }
  const std::vector<PairEntry>& pairs() const { return pairs_; }

 private:
  std::vector<Token> tokens_;
  std::vector<PairEntry> pairs_;
  bool valid_ = false;
};

/// Lemire's fastmod multiplier for the divisor `s` (Lemire, Kaser and
/// Kurz, "Faster remainder by direct computation", 2019): `~0 / s + 1`
/// when `2 <= s < 2^32`, else 0 — the marker that sends
/// `PairResidue` to the hardware `%` (DESIGN.md §18).
constexpr uint64_t FastModMultiplier(uint64_t s) {
  return s >= 2 && s < (uint64_t{1} << 32) ? ~uint64_t{0} / s + 1 : 0;
}

/// `mag % s`, exact for every `mag` and every `s >= 1`: one 64-bit and
/// one 64x64→128-bit multiply when `magic = FastModMultiplier(s)` is
/// non-zero and `mag < 2^32` (the fastmod identity holds for any 32-bit
/// dividend and divisor), the hardware `%` otherwise.
inline uint64_t FastMod(uint64_t mag, uint64_t s, uint64_t magic) {
  if (magic != 0 && (mag >> 32) == 0) {
    const uint64_t lowbits = magic * mag;
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(lowbits) * s) >> 64);
  }
  return mag % s;
}

/// The residue `(ci - cj) mod s` in `[0, s)`, computed exactly in
/// `uint64` for every pair of counts (no `double`, no signed overflow):
/// the reduction `r` of `|ci - cj|`, reflected to `s - r` when the pair's
/// order flipped and `r != 0`. The reflection is a mask, not a branch —
/// on a foreign key the order is a coin flip. `s >= 2`; `magic` is
/// `FastModMultiplier(s)`.
inline uint64_t PairResidue(uint64_t ci, uint64_t cj, uint64_t s,
                            uint64_t magic) {
  const uint64_t mag = ci >= cj ? ci - cj : cj - ci;
  const uint64_t r = FastMod(mag, s, magic);
  const uint64_t reflect =
      uint64_t{0} - (static_cast<uint64_t>(ci < cj) & (r != 0));
  return r + ((s - r - r) & reflect);
}

/// Runs watermark detection on a suspect histogram.
///
/// For each stored pair present in the histogram it derives
/// `s_ij = H(tk_i || H(R || tk_j)) mod z` and accepts the pair when
/// `(f_i - f_j) mod s_ij <= t` (one-sided, as in the paper) or additionally
/// when the residue is within `t` of `s_ij` (symmetric option). The dataset
/// is declared watermarked when at least `k` pairs verify.
///
/// The suspect histogram does NOT need to be sorted — only counts are read.
/// A one-off call: `DetectWatermark(suspect, PairModulusTable::Build(
/// secrets), options)`, so every FreqyWM detection runs the one table pair
/// loop. Callers detecting many suspects build the table once (DESIGN.md
/// §18).
DetectResult DetectWatermark(const Histogram& suspect,
                             const WatermarkSecrets& secrets,
                             const DetectOptions& options);

/// Table-backed detection: the hot path of the batch engine, and the one
/// pair loop behind every FreqyWM detection path. Byte-identical to
/// `DetectWatermarkReference(suspect, secrets, options)` when `table` was
/// built from `secrets` (enforced by `tests/exec/prepared_detect_test.cc`).
DetectResult DetectWatermark(const Histogram& suspect,
                             const PairModulusTable& table,
                             const DetectOptions& options);

/// Dense-count detection (DESIGN.md §10): the per-suspect count gather is
/// hoisted out entirely. `dense_ids[t]` maps table token `t` into the
/// caller's flat arrays — `counts[dense_ids[t]]` is the suspect count of
/// `table.tokens()[t]`, valid iff `present[dense_ids[t]]` is non-zero. The
/// batch engine scatters each suspect histogram once for *all* keys, so a
/// matrix cell costs zero hash probes. Byte-identical to the histogram
/// overload when the arrays were scattered from the suspect (enforced by
/// `tests/exec/batch_session_test.cc`).
DetectResult DetectWatermark(const PairModulusTable& table,
                             const uint32_t* dense_ids,
                             const uint64_t* counts, const uint8_t* present,
                             const DetectOptions& options);

/// The pre-table reference implementation (PR 2 state): one full
/// `PairModulus::Compute` — two hashes — per stored pair, no caching of
/// any kind. Kept as the identity oracle for the golden tests and as the
/// "before" side of the perf counters in the benches; output is
/// byte-identical to `DetectWatermark`.
DetectResult DetectWatermarkReference(const Histogram& suspect,
                                      const WatermarkSecrets& secrets,
                                      const DetectOptions& options);

}  // namespace freqywm

#endif  // FREQYWM_CORE_DETECT_H_
