#include "core/watermark.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <limits>
#include <memory>
#include <optional>

#include "core/select.h"
#include "crypto/pair_modulus.h"
#include "stats/similarity.h"

namespace freqywm {

WatermarkGenerator::WatermarkGenerator(GenerateOptions options)
    : options_(options) {}

Status WatermarkGenerator::ValidateOptions() const {
  if (options_.modulus_bound < 2) {
    return Status::InvalidArgument("modulus bound z must be >= 2");
  }
  if (options_.budget_percent < 0 || options_.budget_percent > 100) {
    return Status::InvalidArgument("budget must be in [0, 100] percent");
  }
  if (options_.lambda_bits < 8) {
    return Status::InvalidArgument("security parameter too small");
  }
  if (options_.min_modulus >= options_.modulus_bound) {
    return Status::InvalidArgument(
        "min_modulus must be below the modulus bound z");
  }
  return Status::OK();
}

Result<HistogramGenerateResult> WatermarkGenerator::GenerateFromHistogram(
    const Histogram& original, const ExecContext& exec) const {
  FREQYWM_RETURN_NOT_OK(ValidateOptions());
  if (original.num_tokens() < 2) {
    return Status::InvalidArgument(
        "need at least two distinct tokens to watermark");
  }
  if (!original.IsSortedDescending()) {
    return Status::InvalidArgument("input histogram must be rank-sorted");
  }

  // Step 2 of Algorithm I: draw the high-entropy secret R.
  WatermarkSecret r =
      GenerateSecret(options_.lambda_bits, options_.seed);
  PairModulus modulus(r, options_.modulus_bound);

  // Steps 3-4: eligible pairs, then optimal/heuristic selection.
  std::vector<EligiblePair> eligible =
      BuildEligiblePairs(original, modulus, options_.eligibility,
                         options_.min_modulus, options_.min_pair_cost, exec);

  Rng rng(options_.seed == 0 ? DigestPrefixU64(Sha256::Hash(
                                   std::string(r.r.begin(), r.r.end())))
                             : options_.seed);
  SelectionResult selection = SelectPairs(original, eligible, options_, rng);
  if (selection.chosen.empty()) {
    return Status::ResourceExhausted(
        "no eligible pair fits the budget; dataset frequencies may be too "
        "uniform to watermark");
  }

  // Step 5: frequency modification (with ranking enforcement).
  std::vector<size_t> applied;
  Histogram watermarked =
      ApplyPairDeltas(original, eligible, selection.chosen, &applied);

  HistogramGenerateResult out{std::move(watermarked), GenerateReport{}};
  out.report.eligible_pairs = eligible.size();
  out.report.chosen_pairs = applied.size();
  out.report.similarity_percent =
      HistogramSimilarityPercent(original, out.watermarked, options_.metric);
  out.report.secrets.r = std::move(r);
  out.report.secrets.z = options_.modulus_bound;
  out.report.secrets.pairs.reserve(applied.size());
  for (size_t idx : applied) {
    const EligiblePair& p = eligible[idx];
    out.report.secrets.pairs.push_back(
        SecretPair{original.entry(p.rank_i).token,
                   original.entry(p.rank_j).token});
    out.report.total_churn += p.cost;
  }
  return out;
}

Result<DatasetGenerateResult> WatermarkGenerator::Generate(
    const Dataset& original, const ExecContext& exec) const {
  FREQYWM_ASSIGN_OR_RETURN(Histogram hist,
                           exec.BuildHistogramChecked(original));
  FREQYWM_ASSIGN_OR_RETURN(HistogramGenerateResult hist_result,
                           GenerateFromHistogram(hist, exec));
  Rng rng(options_.seed == 0
              ? DigestPrefixU64(Sha256::Hash(
                    hist_result.report.secrets.r.ToHex()))
              : options_.seed + 0x517cc1b727220a95ULL);
  DatasetGenerateResult out{
      TransformDataset(original, hist_result.watermarked, rng),
      std::move(hist_result.report)};
  return out;
}

Histogram ApplyPairDeltas(const Histogram& hist,
                          const std::vector<EligiblePair>& eligible,
                          const std::vector<size_t>& chosen,
                          std::vector<size_t>* applied) {
  Histogram out = hist;
  if (applied) applied->clear();

  for (size_t idx : chosen) {
    const EligiblePair& p = eligible[idx];
    const Token& token_i = hist.entry(p.rank_i).token;
    const Token& token_j = hist.entry(p.rank_j).token;

    // Tentatively apply, then verify the local ordering did not break.
    Status si = out.AddDelta(token_i, p.delta_i);
    Status sj = out.AddDelta(token_j, p.delta_j);
    assert(si.ok() && sj.ok());
    (void)si;
    (void)sj;

    if (!out.IsSortedDescending()) {
      // Rare shared-gap collision under the paper's eligibility rule:
      // revert this pair to keep the Ranking Constraint hard.
      Status ri = out.AddDelta(token_i, -p.delta_i);
      Status rj = out.AddDelta(token_j, -p.delta_j);
      assert(ri.ok() && rj.ok());
      (void)ri;
      (void)rj;
      continue;
    }
    if (applied) applied->push_back(idx);
  }
  return out;
}

namespace {

/// `shrink_of` value of a token the transform does not shrink.
constexpr uint32_t kNotShrinking = std::numeric_limits<uint32_t>::max();

}  // namespace

Dataset TransformDataset(const Dataset& original, const Histogram& target,
                         Rng& rng) {
  // Per-token count differences, in target rank order: each shrinking
  // token gets a dense shrink id with its occurrence and removal counts,
  // each growing token its missing copies. A growing token the dictionary
  // lacks is added to a copy of it.
  struct Shrink {
    uint64_t remaining;
    uint64_t drop;
  };
  const TokenDictionary& dictionary = original.dictionary();
  const std::vector<uint64_t> have = original.IdCounts();
  std::vector<uint32_t> shrink_of(dictionary.size(), kNotShrinking);
  std::vector<Shrink> shrinking;
  std::vector<uint32_t> additions;
  std::shared_ptr<TokenDictionary> grown;
  uint64_t total_drop = 0;
  for (const auto& e : target.entries()) {
    std::optional<uint32_t> id = dictionary.Find(e.token);
    const uint64_t count = id ? have[*id] : 0;
    if (e.count < count) {
      shrink_of[*id] = static_cast<uint32_t>(shrinking.size());
      shrinking.push_back(Shrink{count, count - e.count});
      total_drop += count - e.count;
    } else if (e.count > count) {
      if (!id) {
        if (!grown) grown = std::make_shared<TokenDictionary>(dictionary);
        id = grown->Intern(e.token);
      }
      additions.insert(additions.end(), e.count - count, *id);
    }
  }

  // Drop pass (row order): drop a uniformly random subset of each
  // shrinking token's occurrences. Occurrence r of a token with
  // `remaining` occurrences left and `drop` removals left is dropped with
  // probability drop/remaining, so its last `drop` occurrences always go.
  // A token leaves the pass with its last removal, and the pass ends with
  // the last removal overall: no further row draws.
  //
  // The rows go in blocks: a branch-free scan first collects the block's
  // rows of tokens still shrinking, then only those draw. A per-row branch
  // on "shrinking?" would mispredict on most rows of a mixed dataset. The
  // draws come from a local copy of `rng` that the compiler can keep in
  // registers (the `Shrink` counters could otherwise alias its state).
  constexpr size_t kBlockRows = 1024;
  const std::vector<uint32_t>& ids = original.ids();
  std::vector<size_t> dropped;
  dropped.reserve(total_drop);
  Rng local = rng;
  std::array<uint32_t, kBlockRows> candidates{};
  for (size_t begin = 0; begin < ids.size() && dropped.size() < total_drop;
       begin += kBlockRows) {
    const size_t end = std::min(ids.size(), begin + kBlockRows);
    size_t num_candidates = 0;
    for (size_t i = begin; i < end; ++i) {
      candidates[num_candidates] = static_cast<uint32_t>(i - begin);
      num_candidates += shrink_of[ids[i]] != kNotShrinking;
    }
    for (size_t c = 0; c < num_candidates; ++c) {
      const size_t i = begin + candidates[c];
      uint32_t& shrink_id = shrink_of[ids[i]];
      if (shrink_id == kNotShrinking) continue;  // left earlier in the block
      Shrink& s = shrinking[shrink_id];
      if (local.UniformU64(s.remaining) < s.drop) {
        dropped.push_back(i);
        if (--s.drop == 0) shrink_id = kNotShrinking;
      }
      --s.remaining;
    }
  }
  rng = local;

  // Insert additions at uniformly random final positions: choose |adds|
  // distinct slots among the final length and fill them, in slot order,
  // with a shuffled copy of the additions.
  const size_t num_adds = additions.size();
  const size_t final_size = ids.size() - dropped.size() + num_adds;
  std::vector<size_t> slots;
  if (num_adds > 0) {
    rng.Shuffle(additions);
    slots = rng.SampleWithoutReplacement(final_size, num_adds);
    std::sort(slots.begin(), slots.end());
  }

  // Write pass: append the runs of kept rows between dropped rows until
  // the output reaches the next addition's slot, then the addition.
  std::vector<uint32_t> out;
  out.reserve(final_size);
  size_t src = 0;
  size_t next_drop = 0;
  auto append_kept_rows_until = [&](size_t size) {
    while (out.size() < size) {
      const size_t drop_at =
          next_drop < dropped.size() ? dropped[next_drop] : ids.size();
      const size_t run = std::min(size - out.size(), drop_at - src);
      out.insert(out.end(), ids.begin() + static_cast<ptrdiff_t>(src),
                 ids.begin() + static_cast<ptrdiff_t>(src + run));
      src += run;
      if (src == drop_at && next_drop < dropped.size()) {
        ++src;
        ++next_drop;
      }
    }
  };
  for (size_t j = 0; j < num_adds; ++j) {
    append_kept_rows_until(slots[j]);
    out.push_back(additions[j]);
  }
  append_kept_rows_until(final_size);
  if (grown) return Dataset(std::move(grown), std::move(out));
  return Dataset(original.shared_dictionary(), std::move(out));
}

}  // namespace freqywm
