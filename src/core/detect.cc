#include "core/detect.h"

#include <cmath>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "crypto/pair_modulus.h"

namespace freqywm {

PairModulusTable PairModulusTable::Build(const WatermarkSecrets& secrets) {
  PairModulusTable table;
  if (secrets.z < 2 || secrets.pairs.empty()) return table;

  // Intern every token first, so every distinct token derives its crypto
  // state once: honest pair lists are token-disjoint, but forged/
  // refreshed/multi-watermark keys repeat tokens freely.
  std::unordered_map<std::string_view, uint32_t> index;
  index.reserve(2 * secrets.pairs.size());
  std::vector<std::string_view> views;
  views.reserve(2 * secrets.pairs.size());
  auto intern = [&](std::string_view token) -> uint32_t {
    auto [it, inserted] =
        index.emplace(token, static_cast<uint32_t>(views.size()));
    if (inserted) views.push_back(token);
    return it->second;
  };
  table.pairs_.reserve(secrets.pairs.size());
  for (const SecretPair& pair : secrets.pairs) {
    const uint32_t i = intern(pair.token_i);
    const uint32_t j = intern(pair.token_j);
    table.pairs_.push_back(PairEntry{i, j, 0, 0});
  }
  table.tokens_.assign(views.begin(), views.end());

  // One inner digest per distinct token_j and one prepared outer hash per
  // distinct token_i, then one or two bare compressions per pair.
  PairModulus modulus(secrets.r, secrets.z);
  std::vector<std::optional<Sha256::Digest>> inner(views.size());
  std::vector<std::optional<PairModulus::OuterState>> outer(views.size());
  for (PairEntry& entry : table.pairs_) {
    if (!outer[entry.token_i]) {
      outer[entry.token_i] = modulus.OuterFor(views[entry.token_i]);
    }
    if (!inner[entry.token_j]) {
      inner[entry.token_j] = modulus.InnerDigest(views[entry.token_j]);
    }
    entry.s = outer[entry.token_i]->Reduce(*inner[entry.token_j]);
    entry.magic = FastModMultiplier(entry.s);
  }
  table.valid_ = true;
  return table;
}

namespace {

/// 1 when a pair with residue `residue` modulo `s` verifies under
/// threshold `t` (one-sided, or within `t` of `s` too when `symmetric`),
/// else 0 — a mask to add, not a branch: foreign keys pass at ~1/s, so a
/// `pass` branch would mispredict.
inline size_t PairVerifies(uint64_t residue, uint64_t s, uint64_t t,
                           bool symmetric) {
  return static_cast<size_t>((residue <= t) |
                             (symmetric & (s - residue <= t)));
}

/// The rescale path (`rescale_factor > 0`, the sampling attack's
/// detector): each count is scaled by the factor and rounded with
/// `llround`, then the pair verifies as an unscaled one would. A scaled
/// count that is not finite or not below 2^63 has no `int64` rounding
/// (`llround` returns LLONG_MIN on x86), so its pair counts as found but
/// never verifies: two such counts would otherwise share residue 0.
size_t RescaledPairVerifies(uint64_t ci, uint64_t cj, uint64_t s,
                            const DetectOptions& options) {
  const double xi = static_cast<double>(ci) * options.rescale_factor;
  const double xj = static_cast<double>(cj) * options.rescale_factor;
  if (!(xi < 0x1p63) || !(xj < 0x1p63)) return 0;
  const uint64_t fi = static_cast<uint64_t>(std::llround(xi));
  const uint64_t fj = static_cast<uint64_t>(std::llround(xj));
  return PairVerifies(PairResidue(fi, fj, s, /*magic=*/0), s,
                      options.pair_threshold, options.symmetric_residue);
}

/// The pair loop of every FreqyWM detection (the reference oracle aside).
/// `has(t)` / `count(t)` read the suspect-side presence and count of table
/// token `t`; the histogram and dense-count overloads below differ only in
/// how those lookups resolve, so their arithmetic — and therefore their
/// output — is identical by construction.
///
/// The integer path (DESIGN.md §18) is branch-free past the presence
/// test: each pair's residue comes from `PairResidue` (division-free for
/// 32-bit moduli and differences) and its verdict is a 0/1 mask.
template <typename HasCount, typename CountAt>
DetectResult DetectOverTable(const PairModulusTable& table,
                             const HasCount& has, const CountAt& count,
                             const DetectOptions& options) {
  DetectResult out;
  if (!table.valid()) return out;

  const uint64_t t = options.pair_threshold;
  const bool symmetric = options.symmetric_residue;
  size_t found = 0;
  size_t verified = 0;
  // One loop per residue kind, so the integer loop carries no rescale
  // test. An attack may flip a pair's order; the residue is still taken
  // of the signed difference, reflected into [0, s).
  auto count_pairs = [&](const auto& verifies) {
    for (const PairModulusTable::PairEntry& pair : table.pairs()) {
      if (!has(pair.token_i) || !has(pair.token_j)) continue;
      ++found;
      if (pair.s < 2) continue;  // cannot happen for honestly generated pairs
      verified += verifies(pair);
    }
  };
  if (options.rescale_factor > 0.0) {
    count_pairs([&](const PairModulusTable::PairEntry& pair) {
      return RescaledPairVerifies(count(pair.token_i), count(pair.token_j),
                                  pair.s, options);
    });
  } else {
    count_pairs([&](const PairModulusTable::PairEntry& pair) {
      return PairVerifies(PairResidue(count(pair.token_i),
                                      count(pair.token_j), pair.s, pair.magic),
                          pair.s, t, symmetric);
    });
  }

  out.pairs_found = found;
  out.pairs_verified = verified;
  out.verified_fraction =
      static_cast<double>(verified) / static_cast<double>(table.num_pairs());
  out.accepted = verified >= options.min_pairs;
  return out;
}

}  // namespace

DetectResult DetectWatermark(const Histogram& suspect,
                             const PairModulusTable& table,
                             const DetectOptions& options) {
  if (!table.valid()) return DetectResult{};

  // Gather each distinct token's suspect-side count once per call; the
  // pair loop is then pure arithmetic over the cached counts and the
  // table's precomputed moduli.
  const std::vector<Token>& tokens = table.tokens();
  std::vector<uint64_t> counts(tokens.size(), 0);
  std::vector<uint8_t> present(tokens.size(), 0);
  for (size_t t = 0; t < tokens.size(); ++t) {
    const std::optional<uint64_t> count = suspect.CountOf(tokens[t]);
    counts[t] = count.value_or(0);
    present[t] = count.has_value();
  }

  return DetectOverTable(
      table, [&](uint32_t t) { return present[t] != 0; },
      [&](uint32_t t) { return counts[t]; }, options);
}

DetectResult DetectWatermark(const PairModulusTable& table,
                             const uint32_t* dense_ids,
                             const uint64_t* counts, const uint8_t* present,
                             const DetectOptions& options) {
  return DetectOverTable(
      table, [&](uint32_t t) { return present[dense_ids[t]] != 0; },
      [&](uint32_t t) { return counts[dense_ids[t]]; }, options);
}

DetectResult DetectWatermark(const Histogram& suspect,
                             const WatermarkSecrets& secrets,
                             const DetectOptions& options) {
  return DetectWatermark(suspect, PairModulusTable::Build(secrets), options);
}

DetectResult DetectWatermarkReference(const Histogram& suspect,
                                      const WatermarkSecrets& secrets,
                                      const DetectOptions& options) {
  DetectResult out;
  if (secrets.z < 2 || secrets.pairs.empty()) return out;

  PairModulus modulus(secrets.r, secrets.z);

  for (const auto& pair : secrets.pairs) {
    auto ci = suspect.CountOf(pair.token_i);
    auto cj = suspect.CountOf(pair.token_j);
    if (!ci || !cj) continue;
    ++out.pairs_found;

    uint64_t s = modulus.Compute(pair.token_i, pair.token_j);
    if (s < 2) continue;  // cannot happen for honestly generated pairs

    // The rescale path rounds the scaled counts; a scaled count with no
    // `int64` rounding (not finite, or at least 2^63) never verifies.
    uint64_t fi = *ci;
    uint64_t fj = *cj;
    if (options.rescale_factor > 0.0) {
      const double xi = static_cast<double>(*ci) * options.rescale_factor;
      const double xj = static_cast<double>(*cj) * options.rescale_factor;
      if (!(xi < 0x1p63) || !(xj < 0x1p63)) continue;
      fi = static_cast<uint64_t>(std::llround(xi));
      fj = static_cast<uint64_t>(std::llround(xj));
    }
    // Exact integer residue of the signed difference (the hardware `%`,
    // independent of the table path's fastmod).
    const uint64_t mag = fi >= fj ? fi - fj : fj - fi;
    const uint64_t r = mag % s;
    const uint64_t residue = fi >= fj || r == 0 ? r : s - r;

    bool pass = residue <= options.pair_threshold;
    if (!pass && options.symmetric_residue) {
      pass = (s - residue) <= options.pair_threshold;
    }
    if (pass) ++out.pairs_verified;
  }

  out.verified_fraction =
      static_cast<double>(out.pairs_verified) /
      static_cast<double>(secrets.pairs.size());
  out.accepted = out.pairs_verified >= options.min_pairs;
  return out;
}

}  // namespace freqywm
