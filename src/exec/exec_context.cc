#include "exec/exec_context.h"

#include <algorithm>

#include "exec/thread_pool.h"

namespace freqywm {

namespace {

/// The fewest rows a count shard gets: ~30 µs of counting.
constexpr size_t kMinShardRows = size_t{1} << 16;

/// Count shards per pool participant, so a participant that starts late
/// leaves its share to the others.
constexpr size_t kShardsPerParticipant = 4;

}  // namespace

bool ExecContext::parallel() const {
  return pool != nullptr && pool->num_threads() > 0;
}

Status ExecContext::ForEachChecked(
    size_t n, const std::function<Status(size_t)>& body) const {
  if (parallel()) return pool->ParallelForChecked(n, interrupt(), body);
  for (size_t i = 0; i < n; ++i) {
    FREQYWM_RETURN_NOT_OK(CheckInterrupted());
    FREQYWM_RETURN_NOT_OK(body(i));
  }
  return Status::OK();
}

size_t ExecContext::RowShards(const Dataset& dataset) const {
  if (!parallel()) return 1;
  const size_t min_rows =
      std::max(kMinShardRows, 4 * dataset.dictionary().size());
  return std::clamp<size_t>(dataset.size() / min_rows, 1,
                            kShardsPerParticipant * (pool->num_threads() + 1));
}

Result<ShardedIdCounts> ExecContext::CountIds(const Dataset& dataset,
                                              size_t num_shards) const {
  ShardedIdCounts counts(dataset, num_shards);
  FREQYWM_RETURN_NOT_OK(ForEachChecked(num_shards, [&](size_t s) {
    counts.CountShard(dataset, s);
    return Status::OK();
  }));
  counts.SumShards();
  return counts;
}

Result<ShardedIdCounts> ExecContext::CountIds(const Dataset& dataset) const {
  return CountIds(dataset, RowShards(dataset));
}

Histogram ExecContext::BuildHistogram(const Dataset& dataset) const {
  // The unchecked loop: `CountIds` polls and, on a pool, runs the
  // `thread_pool/shard` fault site, so it can fail and this form cannot.
  ShardedIdCounts counts(dataset, RowShards(dataset));
  auto count = [&](size_t s) { counts.CountShard(dataset, s); };
  if (parallel()) {
    pool->ParallelFor(counts.num_shards(), count);
  } else {
    count(0);
  }
  counts.SumShards();
  return Histogram::FromIdCounts(dataset.dictionary(), counts.total);
}

Result<Histogram> ExecContext::BuildHistogramChecked(
    const Dataset& dataset) const {
  FREQYWM_ASSIGN_OR_RETURN(ShardedIdCounts counts, CountIds(dataset));
  return Histogram::FromIdCounts(dataset.dictionary(), counts.total);
}

}  // namespace freqywm
