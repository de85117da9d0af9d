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

Status WatermarkGenerator::ValidateOptions(const GenerateOptions& options) {
  if (options.modulus_bound < 2) {
    return Status::InvalidArgument("modulus bound z must be >= 2");
  }
  if (options.budget_percent < 0 || options.budget_percent > 100) {
    return Status::InvalidArgument("budget must be in [0, 100] percent");
  }
  if (options.lambda_bits < 8) {
    return Status::InvalidArgument("security parameter too small");
  }
  if (options.lambda_bits > kMaxLambdaBits) {
    return Status::InvalidArgument("security parameter above " +
                                   std::to_string(kMaxLambdaBits) + " bits");
  }
  if (options.min_modulus >= options.modulus_bound) {
    return Status::InvalidArgument(
        "min_modulus must be below the modulus bound z");
  }
  return Status::OK();
}

Result<HistogramGenerateResult> WatermarkGenerator::GenerateFromHistogram(
    const Histogram& original, const ExecContext& exec) const {
  FREQYWM_RETURN_NOT_OK(ValidateOptions(options_));
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

/// Where a shrinking token's drops begin in one shard: its first dropped
/// occurrence at or after the shard's first row, as an index into `gaps`
/// and the number of the token's occurrences in the shard kept before it.
/// `slot` numbers the token among the shrinking tokens.
struct DropStart {
  uint32_t id;
  uint32_t slot;
  size_t gap_at;
  uint64_t countdown;
};

}  // namespace

Dataset TransformDataset(const Dataset& original, const Histogram& target,
                         Rng& rng) {
  const ExecContext serial;
  return TransformDataset(original, serial.CountIds(original, 1).value(),
                          nullptr, target, rng, serial)
      .value();
}

Result<Dataset> TransformDataset(const Dataset& original,
                                 const ShardedIdCounts& counts,
                                 const Histogram* base,
                                 const Histogram& target, Rng& rng,
                                 const ExecContext& exec) {
  // Plan (serial): per-token count differences, in target rank order. A
  // target entry that `base` holds at the same rank with the same count
  // is unchanged and needs no lookup. Each shrinking token draws the
  // occurrence ranks it drops, a uniform subset of [0, count) (paper
  // §III-B1), and lists them in `gaps` as ascending runs of kept
  // occurrences before each drop, then a `kNoDrop` sentinel. Each shard
  // in which the token drops gets a `DropStart`: its counts give the
  // token's occurrences in earlier shards. Each growing token gets its
  // missing copies. A growing token the dictionary lacks is added to a
  // copy of it. `slot_of[id]` numbers the shrinking tokens.
  const TokenDictionary& dictionary = original.dictionary();
  const size_t num_shards = counts.num_shards();
  const std::vector<size_t>& bounds = counts.bounds;
  std::vector<uint64_t> gaps;
  std::vector<uint32_t> slot_of(dictionary.size());
  uint32_t num_shrinking = 0;
  std::vector<std::vector<DropStart>> starts(num_shards);
  // drops_before[s]: dropped rows in shards before s.
  std::vector<size_t> drops_before(num_shards + 1, 0);
  std::vector<uint32_t> additions;
  std::shared_ptr<TokenDictionary> grown;
  const std::vector<HistogramEntry>& entries = target.entries();
  for (size_t rank = 0; rank < entries.size(); ++rank) {
    const HistogramEntry& e = entries[rank];
    if (base != nullptr && rank < base->num_tokens() &&
        base->entry(rank).count == e.count &&
        base->entry(rank).token == e.token) {
      continue;
    }
    std::optional<uint32_t> id = dictionary.Find(e.token);
    const uint64_t count = id ? counts.total[*id] : 0;
    if (e.count < count) {
      std::vector<size_t> ranks =
          rng.SampleWithoutReplacement(count, count - e.count);
      std::sort(ranks.begin(), ranks.end());
      const size_t first_gap = gaps.size();
      uint64_t next_rank = 0;
      for (size_t r : ranks) {
        gaps.push_back(r - next_rank);
        next_rank = r + 1;
      }
      gaps.push_back(kNoDrop);
      slot_of[*id] = num_shrinking++;
      uint64_t seen = 0;  // the token's occurrences in earlier shards
      size_t k = 0;
      for (size_t s = 0; s < num_shards && k < ranks.size(); ++s) {
        seen += counts.counts[s][*id];
        const size_t first = k;
        while (k < ranks.size() && ranks[k] < seen) ++k;
        if (k == first) continue;
        starts[s].push_back(DropStart{
            *id, slot_of[*id], first_gap + first,
            ranks[first] - (seen - counts.counts[s][*id])});
        drops_before[s + 1] += k - first;
      }
    } else if (e.count > count) {
      if (!id) {
        if (!grown) grown = std::make_shared<TokenDictionary>(dictionary);
        id = grown->Intern(e.token);
      }
      additions.insert(additions.end(), e.count - count, *id);
    }
  }
  for (size_t s = 0; s < num_shards; ++s) {
    drops_before[s + 1] += drops_before[s];
  }

  // Insert additions at uniformly random final positions: choose |adds|
  // distinct slots among the final length and fill them, in slot order,
  // with a shuffled copy of the additions.
  const RowIds& ids = original.ids();
  const size_t num_adds = additions.size();
  const size_t final_size = ids.size() - drops_before[num_shards] + num_adds;
  std::vector<size_t> slots;
  if (num_adds > 0) {
    rng.Shuffle(additions);
    slots = rng.SampleWithoutReplacement(final_size, num_adds);
    std::sort(slots.begin(), slots.end());
  }

  // Addition j follows `slots[j] - j` kept rows, a non-decreasing count.
  // Shard s writes the additions that follow at least as many kept rows
  // as precede the shard (`kept(s)`) and fewer than precede the next;
  // the last shard also writes those after every kept row. Its output
  // then starts at kept(s) plus the additions of earlier shards.
  auto kept = [&](size_t s) { return bounds[s] - drops_before[s]; };
  std::vector<size_t> adds_before(num_shards + 1, num_adds);
  adds_before[0] = 0;
  for (size_t s = 1, j = 0; s < num_shards; ++s) {
    while (j < num_adds && slots[j] - j < kept(s)) ++j;
    adds_before[s] = j;
  }

  RowIds out(final_size);  // every slot is written below
  std::vector<size_t> dropped(drops_before[num_shards]);
  auto run_shard = [&](size_t s) {
    // Rank match (row order): count down each row's token and drop the
    // row that reaches zero. That happens once per dropped row, so the
    // branch is nearly always predicted. The pass ends with the shard's
    // last drop.
    std::vector<uint64_t> countdown(dictionary.size(), kNoDrop);
    std::vector<size_t> gap_at(num_shrinking);
    for (const DropStart& start : starts[s]) {
      countdown[start.id] = start.countdown;
      gap_at[start.slot] = start.gap_at;
    }
    const size_t row_end = bounds[s + 1];
    const size_t drop_end = drops_before[s + 1];
    size_t d = drops_before[s];
    for (size_t i = bounds[s]; i < row_end && d < drop_end; ++i) {
      const uint32_t id = ids[i];
      if (countdown[id]-- == 0) {
        dropped[d++] = i;
        countdown[id] = gaps[++gap_at[slot_of[id]]];
      }
    }

    // Write pass: append the runs of kept rows between dropped rows until
    // the output reaches the next addition's slot, then the addition.
    size_t pos = kept(s) + adds_before[s];
    size_t src = bounds[s];
    size_t next_drop = drops_before[s];
    auto append_kept_rows_until = [&](size_t size) {
      while (pos < size) {
        const size_t drop_at =
            next_drop < drop_end ? dropped[next_drop] : row_end;
        const size_t run = std::min(size - pos, drop_at - src);
        std::copy(ids.begin() + static_cast<ptrdiff_t>(src),
                  ids.begin() + static_cast<ptrdiff_t>(src + run),
                  out.begin() + static_cast<ptrdiff_t>(pos));
        pos += run;
        src += run;
        if (src == drop_at && next_drop < drop_end) {
          ++src;
          ++next_drop;
        }
      }
    };
    for (size_t j = adds_before[s]; j < adds_before[s + 1]; ++j) {
      append_kept_rows_until(slots[j]);
      out[pos++] = additions[j];
    }
    append_kept_rows_until(kept(s + 1) + adds_before[s + 1]);
    return Status::OK();
  };
  FREQYWM_RETURN_NOT_OK(exec.ForEachChecked(num_shards, run_shard));
  if (grown) return Dataset(std::move(grown), std::move(out));
  return Dataset(original.shared_dictionary(), std::move(out));
}

}  // namespace freqywm
