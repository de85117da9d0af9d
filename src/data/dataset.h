#ifndef FREQYWM_DATA_DATASET_H_
#define FREQYWM_DATA_DATASET_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "data/token.h"

namespace freqywm {

/// The distinct tokens of one or more `Dataset`s, each named by a dense
/// `uint32_t` id: `token(id)` is the token, `Find(token)` its id.
/// Datasets derived from one another (copies, samples, transforms) share
/// a dictionary by pointer, so it may hold tokens that no row of a given
/// dataset uses.
class TokenDictionary {
 public:
  TokenDictionary() = default;

  /// A dictionary whose ids are the positions in `tokens`. Precondition:
  /// the tokens are distinct.
  explicit TokenDictionary(std::vector<Token> tokens);

  /// Number of distinct tokens; ids are `[0, size())`.
  size_t size() const { return tokens_.size(); }

  const Token& token(uint32_t id) const { return tokens_[id]; }

  /// The id of `token`, or nullopt if absent.
  std::optional<uint32_t> Find(const Token& token) const;

  /// The id of `token`, adding it with the next free id when absent.
  uint32_t Intern(const Token& token);

 private:
  std::vector<Token> tokens_;
  std::unordered_map<Token, uint32_t> ids_;
};

/// `std::allocator` whose value-less `construct` default-initializes, so
/// `resize` and the size constructor leave new elements unset instead of
/// zeroing them.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>& /*other*/) noexcept {}

  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// A dataset's rows as dictionary ids. `RowIds(n)` leaves the ids unset:
/// a writer that fills every row (the sharded transform, DESIGN.md §17;
/// the generators) pays no zeroing pass, and one that fills them from
/// several threads takes the fresh pages' faults on those threads.
using RowIds = std::vector<uint32_t, DefaultInitAllocator<uint32_t>>;

/// The dataset `Do`/`Dw` from the paper: an ordered multiset of tokens.
///
/// Order matters to FreqyWM only for security (added tokens must land at
/// random positions, §III-B1) and for the sequence-analysis experiments in
/// §VI; the watermark itself depends only on the frequency histogram.
///
/// Rows are stored as `uint32_t` ids into a shared, immutable
/// `TokenDictionary` (DESIGN.md §7), so copying, counting and
/// transforming rows never hashes or copies a string. A mutation that
/// needs a token the dictionary lacks gives this dataset its own copy of
/// the dictionary (copy on write); other datasets are unaffected.
class Dataset {
 public:
  /// An empty dataset over an empty dictionary.
  Dataset();

  /// Interns `tokens` (one hash per row) into a new dictionary, ids in
  /// order of first occurrence.
  explicit Dataset(std::vector<Token> tokens);

  /// Rows `ids` over `dictionary`. Precondition: every id is below
  /// `dictionary->size()`.
  Dataset(std::shared_ptr<const TokenDictionary> dictionary, RowIds ids);

  /// Number of rows (token occurrences), i.e. the paper's sample size.
  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }

  /// The token of row `i`.
  const Token& operator[](size_t i) const {
    return dictionary_->token(ids_[i]);
  }

  /// The rows as tokens. Materializes every row: O(n) time and a string
  /// per row, so row passes use `ids()` and `dictionary()` instead.
  std::vector<Token> tokens() const;

  /// The rows as dictionary ids.
  const RowIds& ids() const { return ids_; }
  const TokenDictionary& dictionary() const { return *dictionary_; }
  const std::shared_ptr<const TokenDictionary>& shared_dictionary() const {
    return dictionary_;
  }

  /// Occurrences of each dictionary id, indexed by id (zero for tokens
  /// no row uses). One pass over the rows.
  std::vector<uint64_t> IdCounts() const;

  /// Appends one token occurrence at the end. A token the dictionary
  /// lacks is added to a copy of it.
  void Append(const Token& token);

  /// Counts occurrences of `token` (O(n); use Histogram for bulk queries).
  size_t CountOf(const Token& token) const;

 private:
  std::shared_ptr<const TokenDictionary> dictionary_;
  RowIds ids_;
};

/// A dataset's id counts per contiguous row range ("shard"): shard `s`
/// is rows `[bounds[s], bounds[s + 1])` and `counts[s][id]` counts `id`
/// there; `total` is their sum, `Dataset::IdCounts()`. Shards count
/// independently, so a pool can count them at once (`ExecContext::
/// CountIds`); one count then feeds both the histogram and the row
/// transform of an embed (DESIGN.md §17).
struct ShardedIdCounts {
  /// `num_shards` (>= 1) near-equal contiguous row ranges of `dataset`,
  /// with zeroed count tables (allocated here, on the calling thread,
  /// rather than in the pool workers' malloc arenas). With more shards
  /// than rows some shards are empty.
  ShardedIdCounts(const Dataset& dataset, size_t num_shards);

  /// Counts shard `s` of `dataset`, the dataset the shards were cut from.
  /// Touches only `counts[s]`.
  void CountShard(const Dataset& dataset, size_t s);

  /// Sets `total` once every shard is counted.
  void SumShards();

  size_t num_shards() const { return counts.size(); }

  std::vector<size_t> bounds;
  std::vector<std::vector<uint64_t>> counts;
  std::vector<uint64_t> total;
};

/// A multi-dimensional (relational) dataset: rows of attribute values with a
/// shared schema. FreqyWM operates on it by projecting one or more attributes
/// into composite tokens (§IV-C).
class TableDataset {
 public:
  TableDataset() = default;

  /// Creates a table with the given column names.
  explicit TableDataset(std::vector<std::string> column_names)
      : column_names_(std::move(column_names)) {}

  /// Appends a row. Fails with `InvalidArgument` if the arity mismatches.
  Status AppendRow(std::vector<std::string> row);

  size_t num_rows() const { return rows_.size(); }
  size_t num_columns() const { return column_names_.size(); }
  const std::vector<std::string>& column_names() const { return column_names_; }
  const std::vector<std::string>& row(size_t i) const { return rows_[i]; }

  /// Resolves a column name to its index.
  Result<size_t> ColumnIndex(const std::string& name) const;

  /// Projects the named columns into a single-dimensional token `Dataset`
  /// by joining each row's selected attribute values (paper §IV-C: a token
  /// can be `[Age]` or `[Age, WorkClass]`).
  Result<Dataset> ProjectTokens(
      const std::vector<std::string>& token_columns) const;

  /// Adds `count` new rows whose token columns equal `token` by copying the
  /// non-token attributes from uniformly random existing rows carrying that
  /// token (the paper's "naive solution" for frequency increase, §IV-C).
  /// Fails with `NotFound` if the token has no donor row.
  Status ReplicateTokenRows(const std::vector<std::string>& token_columns,
                            const Token& token, size_t count, Rng& rng);

  /// Removes `count` uniformly random rows whose token columns equal `token`.
  /// Returns the number actually removed.
  Result<size_t> RemoveTokenRows(const std::vector<std::string>& token_columns,
                                 const Token& token, size_t count, Rng& rng);

 private:
  Result<std::vector<size_t>> ResolveColumns(
      const std::vector<std::string>& names) const;

  std::vector<std::string> column_names_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace freqywm

#endif  // FREQYWM_DATA_DATASET_H_
