#include "core/watermark.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>
#include <unordered_map>

#include "core/select.h"
#include "crypto/pair_modulus.h"
#include "exec/thread_pool.h"
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
      TransformDataset(original, hist, hist_result.watermarked, rng, exec),
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

/// Below this many rows per chunk a pool task costs more than it saves.
constexpr size_t kMinRowsPerChunk = 1 << 14;

/// Row marks of the transform: the id of the row's shrinking token, or
/// one of these two values.
constexpr uint32_t kUntouchedRow = std::numeric_limits<uint32_t>::max();
constexpr uint32_t kDroppedRow = kUntouchedRow - 1;

}  // namespace

Dataset TransformDataset(const Dataset& original, const Histogram& target,
                         Rng& rng) {
  return TransformDataset(original, Histogram::FromDataset(original), target,
                          rng, ExecContext{});
}

Dataset TransformDataset(const Dataset& original,
                         const Histogram& original_hist,
                         const Histogram& target, Rng& rng,
                         const ExecContext& exec) {
  // Per-token count differences, in target rank order: each shrinking
  // token gets a dense id with its occurrence and removal counts, each
  // growing token its missing copies.
  struct Shrink {
    uint64_t remaining;
    uint64_t drop;
  };
  std::unordered_map<Token, uint32_t> shrink_ids;
  std::vector<Shrink> shrinking;
  std::vector<Token> additions;
  for (const auto& e : target.entries()) {
    const uint64_t have = original_hist.CountOf(e.token).value_or(0);
    if (e.count < have) {
      shrink_ids.emplace(e.token, static_cast<uint32_t>(shrinking.size()));
      shrinking.push_back(Shrink{have, have - e.count});
    } else {
      additions.insert(additions.end(), e.count - have, e.token);
    }
  }
  assert(shrinking.size() < kDroppedRow);

  // Contiguous row chunks, one pool task each in passes 1 and 3.
  const size_t n = original.size();
  size_t chunks = 1;
  if (exec.parallel()) {
    chunks = std::min((exec.pool->num_threads() + 1) * 4,
                      std::max<size_t>(1, n / kMinRowsPerChunk));
  }
  auto chunk_begin = [&](size_t c) { return n * c / chunks; };
  auto for_each_chunk = [&](const std::function<void(size_t)>& body) {
    if (chunks > 1) {
      exec.pool->ParallelFor(chunks, body);
    } else {
      body(0);
    }
  };

  // Pass 1 (pooled): mark each row of a shrinking token with its id.
  std::vector<uint32_t> marks;
  if (!shrinking.empty()) {
    marks.resize(n);
    for_each_chunk([&](size_t c) {
      for (size_t i = chunk_begin(c); i < chunk_begin(c + 1); ++i) {
        auto it = shrink_ids.find(original[i]);
        marks[i] = it == shrink_ids.end() ? kUntouchedRow : it->second;
      }
    });
  }

  // Pass 2 (serial, row order): drop a uniformly random subset of each
  // shrinking token's occurrences. Occurrence r of a token with
  // `remaining` occurrences left and `drop` removals left is dropped with
  // probability drop/remaining. Also counts the kept rows before each
  // chunk, which places that chunk's rows in pass 3.
  std::vector<size_t> kept_before(chunks + 1, 0);
  for (size_t c = 0; c < chunks; ++c) {
    size_t kept = chunk_begin(c + 1) - chunk_begin(c);
    if (!marks.empty()) {
      for (size_t i = chunk_begin(c); i < chunk_begin(c + 1); ++i) {
        if (marks[i] == kUntouchedRow) continue;
        Shrink& s = shrinking[marks[i]];
        assert(s.remaining > 0);  // original_hist counts match the rows
        if (s.drop > 0 && rng.UniformU64(s.remaining) < s.drop) {
          --s.drop;
          marks[i] = kDroppedRow;
          --kept;
        }
        --s.remaining;
      }
    }
    kept_before[c + 1] = kept_before[c] + kept;
  }
  const size_t num_kept = kept_before[chunks];

  // Insert additions at uniformly random final positions: choose |adds|
  // distinct slots among the final length and fill them with a shuffled
  // copy of the additions. `gaps[j] = slots[j] - j` is the number of kept
  // rows before addition j, so kept row k lands at k + #{j : gaps[j] <= k}.
  const size_t num_adds = additions.size();
  std::vector<size_t> gaps;
  if (num_adds > 0) {
    rng.Shuffle(additions);
    gaps = rng.SampleWithoutReplacement(num_kept + num_adds, num_adds);
    std::sort(gaps.begin(), gaps.end());
    for (size_t j = 0; j < num_adds; ++j) gaps[j] -= j;
  }

  // Pass 3 (pooled): each chunk writes its kept rows, and the additions
  // placed before them, straight into their final positions. The last
  // chunk also writes the additions after the last kept row.
  std::vector<Token> out(num_kept + num_adds);
  for_each_chunk([&](size_t c) {
    size_t k = kept_before[c];
    size_t j = static_cast<size_t>(
        std::lower_bound(gaps.begin(), gaps.end(), k) - gaps.begin());
    for (size_t i = chunk_begin(c); i < chunk_begin(c + 1); ++i) {
      if (!marks.empty() && marks[i] == kDroppedRow) continue;
      for (; j < num_adds && gaps[j] <= k; ++j) {
        out[gaps[j] + j] = std::move(additions[j]);
      }
      out[k + j] = original[i];
      ++k;
    }
    if (c + 1 == chunks) {
      for (; j < num_adds; ++j) out[gaps[j] + j] = std::move(additions[j]);
    }
  });
  return Dataset(std::move(out));
}

}  // namespace freqywm
