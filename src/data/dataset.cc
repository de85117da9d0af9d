#include "data/dataset.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace freqywm {

TokenDictionary::TokenDictionary(std::vector<Token> tokens)
    : tokens_(std::move(tokens)) {
  assert(tokens_.size() < std::numeric_limits<uint32_t>::max());
  ids_.reserve(tokens_.size());
  for (size_t id = 0; id < tokens_.size(); ++id) {
    const bool inserted =
        ids_.emplace(tokens_[id], static_cast<uint32_t>(id)).second;
    assert(inserted);
    (void)inserted;
  }
}

std::optional<uint32_t> TokenDictionary::Find(const Token& token) const {
  auto it = ids_.find(token);
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

uint32_t TokenDictionary::Intern(const Token& token) {
  auto [it, inserted] =
      ids_.try_emplace(token, static_cast<uint32_t>(tokens_.size()));
  if (inserted) {
    assert(tokens_.size() < std::numeric_limits<uint32_t>::max());
    tokens_.push_back(token);
  }
  return it->second;
}

namespace {

const std::shared_ptr<const TokenDictionary>& EmptyDictionary() {
  static const std::shared_ptr<const TokenDictionary> kEmpty =
      std::make_shared<const TokenDictionary>();
  return kEmpty;
}

}  // namespace

Dataset::Dataset() : dictionary_(EmptyDictionary()) {}

Dataset::Dataset(std::vector<Token> tokens) {
  auto dictionary = std::make_shared<TokenDictionary>();
  ids_.reserve(tokens.size());
  for (const Token& token : tokens) ids_.push_back(dictionary->Intern(token));
  dictionary_ = std::move(dictionary);
}

Dataset::Dataset(std::shared_ptr<const TokenDictionary> dictionary,
                 RowIds ids)
    : dictionary_(std::move(dictionary)), ids_(std::move(ids)) {
  assert(dictionary_ != nullptr);
}

std::vector<Token> Dataset::tokens() const {
  std::vector<Token> out;
  out.reserve(ids_.size());
  for (uint32_t id : ids_) out.push_back(dictionary_->token(id));
  return out;
}

std::vector<uint64_t> Dataset::IdCounts() const {
  ShardedIdCounts one(*this, 1);
  one.CountShard(*this, 0);
  return std::move(one.counts[0]);
}

ShardedIdCounts::ShardedIdCounts(const Dataset& dataset, size_t num_shards)
    : bounds(num_shards + 1),
      counts(num_shards,
             std::vector<uint64_t>(dataset.dictionary().size(), 0)) {
  assert(num_shards > 0);
  for (size_t s = 0; s <= num_shards; ++s) {
    bounds[s] = dataset.size() / num_shards * s +
                std::min(s, dataset.size() % num_shards);
  }
}

void ShardedIdCounts::CountShard(const Dataset& dataset, size_t s) {
  std::vector<uint64_t>& shard = counts[s];
  const uint32_t* ids = dataset.ids().data();
  for (size_t i = bounds[s]; i < bounds[s + 1]; ++i) ++shard[ids[i]];
}

void ShardedIdCounts::SumShards() {
  total = counts[0];
  for (size_t s = 1; s < counts.size(); ++s) {
    for (size_t id = 0; id < total.size(); ++id) total[id] += counts[s][id];
  }
}

void Dataset::Append(const Token& token) {
  if (std::optional<uint32_t> id = dictionary_->Find(token)) {
    ids_.push_back(*id);
    return;
  }
  auto copy = std::make_shared<TokenDictionary>(*dictionary_);
  ids_.push_back(copy->Intern(token));
  dictionary_ = std::move(copy);
}

size_t Dataset::CountOf(const Token& token) const {
  const std::optional<uint32_t> id = dictionary_->Find(token);
  if (!id) return 0;
  return static_cast<size_t>(std::count(ids_.begin(), ids_.end(), *id));
}

Status TableDataset::AppendRow(std::vector<std::string> row) {
  if (row.size() != column_names_.size()) {
    return Status::InvalidArgument("row arity does not match schema");
  }
  rows_.push_back(std::move(row));
  return Status::OK();
}

Result<size_t> TableDataset::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < column_names_.size(); ++i) {
    if (column_names_[i] == name) return i;
  }
  return Status::NotFound("no column named '" + name + "'");
}

Result<std::vector<size_t>> TableDataset::ResolveColumns(
    const std::vector<std::string>& names) const {
  if (names.empty()) {
    return Status::InvalidArgument("token projection needs >= 1 column");
  }
  std::vector<size_t> idx;
  idx.reserve(names.size());
  for (const auto& n : names) {
    FREQYWM_ASSIGN_OR_RETURN(size_t i, ColumnIndex(n));
    idx.push_back(i);
  }
  return idx;
}

Result<Dataset> TableDataset::ProjectTokens(
    const std::vector<std::string>& token_columns) const {
  FREQYWM_ASSIGN_OR_RETURN(std::vector<size_t> idx,
                           ResolveColumns(token_columns));
  std::vector<Token> tokens;
  tokens.reserve(rows_.size());
  std::vector<std::string> parts(idx.size());
  for (const auto& row : rows_) {
    for (size_t c = 0; c < idx.size(); ++c) parts[c] = row[idx[c]];
    tokens.push_back(JoinAttributes(parts));
  }
  return Dataset(std::move(tokens));
}

Status TableDataset::ReplicateTokenRows(
    const std::vector<std::string>& token_columns, const Token& token,
    size_t count, Rng& rng) {
  FREQYWM_ASSIGN_OR_RETURN(std::vector<size_t> idx,
                           ResolveColumns(token_columns));
  std::vector<size_t> donors;
  std::vector<std::string> parts(idx.size());
  for (size_t r = 0; r < rows_.size(); ++r) {
    for (size_t c = 0; c < idx.size(); ++c) parts[c] = rows_[r][idx[c]];
    if (JoinAttributes(parts) == token) donors.push_back(r);
  }
  if (donors.empty()) {
    return Status::NotFound("token has no donor row to replicate");
  }
  for (size_t i = 0; i < count; ++i) {
    size_t donor = donors[rng.UniformU64(donors.size())];
    std::vector<std::string> row = rows_[donor];
    size_t pos = static_cast<size_t>(rng.UniformU64(rows_.size() + 1));
    rows_.insert(rows_.begin() + static_cast<ptrdiff_t>(pos), std::move(row));
    // Donor indices shift after insertion; re-adjust those at/after pos.
    for (auto& d : donors) {
      if (d >= pos) ++d;
    }
  }
  return Status::OK();
}

Result<size_t> TableDataset::RemoveTokenRows(
    const std::vector<std::string>& token_columns, const Token& token,
    size_t count, Rng& rng) {
  FREQYWM_ASSIGN_OR_RETURN(std::vector<size_t> idx,
                           ResolveColumns(token_columns));
  std::vector<size_t> holders;
  std::vector<std::string> parts(idx.size());
  for (size_t r = 0; r < rows_.size(); ++r) {
    for (size_t c = 0; c < idx.size(); ++c) parts[c] = rows_[r][idx[c]];
    if (JoinAttributes(parts) == token) holders.push_back(r);
  }
  size_t n = std::min(count, holders.size());
  rng.Shuffle(holders);
  holders.resize(n);
  std::sort(holders.begin(), holders.end());
  for (auto it = holders.rbegin(); it != holders.rend(); ++it) {
    rows_.erase(rows_.begin() + static_cast<ptrdiff_t>(*it));
  }
  return n;
}

}  // namespace freqywm
