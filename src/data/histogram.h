#ifndef FREQYWM_DATA_HISTOGRAM_H_
#define FREQYWM_DATA_HISTOGRAM_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "data/dataset.h"
#include "data/token.h"

namespace freqywm {

/// One row of a frequency histogram: a distinct token and its count.
struct HistogramEntry {
  Token token;
  uint64_t count = 0;

  friend bool operator==(const HistogramEntry& a, const HistogramEntry& b) {
    return a.token == b.token && a.count == b.count;
  }
};

/// The token frequency histogram `D^hist` from the paper.
///
/// At construction the entries are sorted in descending count order with a
/// deterministic tie-break (ascending token bytes), which makes ranks —
/// and therefore eligibility and every experiment — reproducible.
///
/// Count mutations (`SetCount`, `AddDelta`) intentionally do NOT re-sort:
/// the watermark generator proves it preserves ranking, while attack code
/// deliberately breaks it; `IsSortedDescending()` and `Resorted()` let
/// callers check or restore the invariant explicitly.
///
/// Since count mutations never move an entry, the token→rank index is
/// immutable once built and copies share it: copying a histogram copies
/// its entries only.
class Histogram {
 public:
  Histogram();

  /// Builds the histogram of `dataset`, sorted descending: one pass
  /// counting the rows' dictionary ids, then one entry per id that
  /// occurs (DESIGN.md §7).
  static Histogram FromDataset(const Dataset& dataset);

  /// The histogram of rows whose id counts are `counts` (indexed by id
  /// into `dictionary`), sorted descending: one entry per nonzero count.
  static Histogram FromIdCounts(const TokenDictionary& dictionary,
                                const std::vector<uint64_t>& counts);

  /// Builds a histogram from explicit (token, count) pairs. Fails with
  /// `InvalidArgument` on duplicate tokens, zero counts, or counts whose
  /// sum overflows `total_count()`.
  static Result<Histogram> FromCounts(std::vector<HistogramEntry> entries);

  /// Number of distinct tokens.
  size_t num_tokens() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Sum of all counts (the dataset sample size).
  uint64_t total_count() const { return total_; }

  /// Entries in rank order (descending count at construction time).
  const std::vector<HistogramEntry>& entries() const { return entries_; }
  const HistogramEntry& entry(size_t rank) const { return entries_[rank]; }

  /// Count of `token`, or nullopt if absent.
  std::optional<uint64_t> CountOf(const Token& token) const;

  /// Rank (index into `entries()`) of `token`, or nullopt if absent.
  std::optional<size_t> RankOf(const Token& token) const;

  /// Overwrites the count of an existing token (does not re-sort).
  Status SetCount(const Token& token, uint64_t count);

  /// Adds a signed delta to an existing token's count (does not re-sort).
  /// Fails with `InvalidArgument`, leaving the histogram unchanged, if
  /// the count would go negative or the count or total would overflow
  /// `uint64`.
  Status AddDelta(const Token& token, int64_t delta);

  /// True iff counts are non-increasing in rank order — the paper's
  /// Ranking Constraint on the histogram as currently mutated.
  bool IsSortedDescending() const;

  /// A copy re-sorted descending (deterministic tie-break).
  Histogram Resorted() const;

 private:
  using Index = std::unordered_map<Token, size_t>;

  /// Replaces the index with a new one built from `entries_`.
  void RebuildIndex();

  std::vector<HistogramEntry> entries_;
  /// Token → rank, shared by copies. Never null.
  std::shared_ptr<const Index> index_;
  uint64_t total_ = 0;
};

}  // namespace freqywm

#endif  // FREQYWM_DATA_HISTOGRAM_H_
