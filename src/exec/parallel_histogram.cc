#include "exec/parallel_histogram.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <unordered_map>
#include <utility>
#include <vector>

namespace freqywm {

namespace {

/// Below this row count the per-task maps cost more than they save.
constexpr size_t kMinRowsPerChunk = 1 << 14;

}  // namespace

Result<Histogram> BuildHistogramShardedChecked(
    const Dataset& dataset, ThreadPool& pool,
    const InterruptContext& interrupt) {
  FREQYWM_RETURN_NOT_OK(interrupt.Check());
  const size_t n = dataset.size();
  const size_t max_parallelism = pool.num_threads() + 1;  // caller helps
  const size_t chunks =
      std::min(max_parallelism, std::max<size_t>(1, n / kMinRowsPerChunk));
  if (chunks <= 1) return Histogram::FromDataset(dataset);
  const size_t num_shards = chunks;

  // Phase 1: one counting task per contiguous chunk (a single hash per
  // row, exactly like the serial build), then the chunk's *distinct*
  // entries are dealt into per-shard buckets by token hash so phase 2 can
  // merge shards independently. Each parallel phase runs through
  // ParallelForChecked, so a cancellation or deadline expiry is noticed
  // within one chunk/shard of work.
  std::vector<std::vector<std::vector<HistogramEntry>>> buckets(chunks);
  FREQYWM_RETURN_NOT_OK(pool.ParallelForChecked(
      chunks, interrupt, [&](size_t c) {
        const size_t begin = n * c / chunks;
        const size_t end = n * (c + 1) / chunks;
        std::unordered_map<Token, uint64_t> counts;
        for (size_t i = begin; i < end; ++i) ++counts[dataset[i]];
        std::vector<std::vector<HistogramEntry>> dealt(num_shards);
        std::hash<Token> hasher;
        for (auto& [token, count] : counts) {
          dealt[hasher(token) % num_shards].push_back(
              HistogramEntry{token, count});
        }
        buckets[c] = std::move(dealt);
        return Status::OK();
      }));

  // Phase 2: merge each shard across chunks. Shards hold disjoint token
  // sets, so the merged maps concatenate without duplicates.
  std::vector<std::vector<HistogramEntry>> shard_entries(num_shards);
  FREQYWM_RETURN_NOT_OK(pool.ParallelForChecked(
      num_shards, interrupt, [&](size_t s) {
        std::unordered_map<Token, uint64_t> merged;
        for (auto& per_chunk : buckets) {
          for (HistogramEntry& e : per_chunk[s]) merged[e.token] += e.count;
        }
        std::vector<HistogramEntry>& out = shard_entries[s];
        out.reserve(merged.size());
        for (auto& [token, count] : merged) {
          out.push_back(HistogramEntry{token, count});
        }
        return Status::OK();
      }));

  // Phase 3: concatenate and let the histogram's canonical constructor
  // sort descending (deterministic tie-break), rebuilding ranks exactly
  // as the serial build would.
  size_t distinct = 0;
  for (const auto& entries : shard_entries) distinct += entries.size();
  std::vector<HistogramEntry> all;
  all.reserve(distinct);
  for (auto& entries : shard_entries) {
    std::move(entries.begin(), entries.end(), std::back_inserter(all));
  }
  // Shards are token-disjoint, counts are positive and sum to n, so this
  // cannot fail.
  Result<Histogram> hist = Histogram::FromCounts(std::move(all));
  assert(hist.ok());
  return hist;
}

}  // namespace freqywm
