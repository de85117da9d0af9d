#include "core/watermark.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <memory>
#include <optional>

#include "core/select.h"
#include "crypto/pair_modulus.h"
#include "stats/similarity.h"

namespace freqywm {

namespace {

/// Cap on λ: an 8 KiB secret is far past any security need, and the cap
/// keeps an option like `lambda=2^64-1` from sizing the secret.
constexpr size_t kMaxLambdaBits = 65536;

}  // namespace

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
  if (options_.lambda_bits > kMaxLambdaBits) {
    return Status::InvalidArgument("security parameter above " +
                                   std::to_string(kMaxLambdaBits) + " bits");
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

namespace {

/// True when the count at `rank` lies between its neighbours' counts:
/// `count[rank-1] >= count[rank] >= count[rank+1]`, for the neighbours
/// that exist.
bool RankInOrder(const Histogram& hist, size_t rank) {
  const uint64_t count = hist.entry(rank).count;
  return (rank == 0 || hist.entry(rank - 1).count >= count) &&
         (rank + 1 == hist.num_tokens() ||
          count >= hist.entry(rank + 1).count);
}

}  // namespace

Histogram ApplyPairDeltas(const Histogram& hist,
                          const std::vector<EligiblePair>& eligible,
                          const std::vector<size_t>& chosen,
                          std::vector<size_t>* applied) {
  assert(hist.IsSortedDescending());
  Histogram out = hist;
  if (applied) applied->clear();

  for (size_t idx : chosen) {
    const EligiblePair& p = eligible[idx];
    const Token& token_i = hist.entry(p.rank_i).token;
    const Token& token_j = hist.entry(p.rank_j).token;

    // Tentatively apply, then verify the ordering did not break. `out` is
    // sorted before the pair, and only ranks i and j change, so it stays
    // sorted exactly when both sit between their neighbours.
    Status si = out.AddDelta(token_i, p.delta_i);
    Status sj = out.AddDelta(token_j, p.delta_j);
    assert(si.ok() && sj.ok());
    (void)si;
    (void)sj;

    if (!RankInOrder(out, p.rank_i) || !RankInOrder(out, p.rank_j)) {
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

/// Countdown of a token with no drop left: more occurrences than any
/// dataset has.
constexpr uint64_t kNoDrop = std::numeric_limits<uint64_t>::max();

}  // namespace

Dataset TransformDataset(const Dataset& original, const Histogram& target,
                         Rng& rng) {
  // Per-token count differences, in target rank order. Each shrinking
  // token draws the occurrence ranks it drops, a uniform subset of
  // [0, count) (paper §III-B1), and lists them in `gaps` as ascending
  // runs of kept occurrences before each drop, then a `kNoDrop`
  // sentinel. `gap_at[id]` indexes the token's current gap, and
  // `countdown[id]` holds how many of its occurrences are still kept
  // before the next drop. Each growing token gets its missing copies. A
  // growing token the dictionary lacks is added to a copy of it.
  const TokenDictionary& dictionary = original.dictionary();
  const std::vector<uint64_t> have = original.IdCounts();
  std::vector<uint64_t> countdown(dictionary.size(), kNoDrop);
  std::vector<size_t> gap_at(dictionary.size());
  std::vector<uint64_t> gaps;
  std::vector<uint32_t> additions;
  std::shared_ptr<TokenDictionary> grown;
  size_t drops_left = 0;
  for (const auto& e : target.entries()) {
    std::optional<uint32_t> id = dictionary.Find(e.token);
    const uint64_t count = id ? have[*id] : 0;
    if (e.count < count) {
      std::vector<size_t> ranks =
          rng.SampleWithoutReplacement(count, count - e.count);
      std::sort(ranks.begin(), ranks.end());
      gap_at[*id] = gaps.size();
      uint64_t next_rank = 0;
      for (size_t rank : ranks) {
        gaps.push_back(rank - next_rank);
        next_rank = rank + 1;
      }
      gaps.push_back(kNoDrop);
      countdown[*id] = gaps[gap_at[*id]];
      drops_left += ranks.size();
    } else if (e.count > count) {
      if (!id) {
        if (!grown) grown = std::make_shared<TokenDictionary>(dictionary);
        id = grown->Intern(e.token);
      }
      additions.insert(additions.end(), e.count - count, *id);
    }
  }

  // Rank-match pass (row order): count down each row's token and drop
  // the row that reaches zero. That happens once per dropped row, so the
  // branch is nearly always predicted. The pass ends with the last drop.
  const std::vector<uint32_t>& ids = original.ids();
  std::vector<size_t> dropped;
  dropped.reserve(drops_left);
  for (size_t i = 0; i < ids.size() && drops_left > 0; ++i) {
    const uint32_t id = ids[i];
    if (countdown[id]-- == 0) {
      dropped.push_back(i);
      countdown[id] = gaps[++gap_at[id]];
      --drops_left;
    }
  }

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
