#include "analysis/ngram_model.h"

#include <algorithm>
#include <limits>
#include <vector>

namespace freqywm {

void BigramModel::Train(const Dataset& sequence) {
  best_successor_.clear();
  global_fallback_.clear();

  const TokenDictionary& dictionary = sequence.dictionary();
  const RowIds& ids = sequence.ids();
  // Successor counts per context, both as dictionary ids.
  std::unordered_map<uint32_t, std::unordered_map<uint32_t, size_t>>
      transitions;
  for (size_t i = 1; i < ids.size(); ++i) {
    ++transitions[ids[i - 1]][ids[i]];
  }

  for (const auto& [context, successors] : transitions) {
    const Token* best = nullptr;
    size_t best_count = 0;
    for (const auto& [succ, count] : successors) {
      const Token& token = dictionary.token(succ);
      if (count > best_count || (count == best_count && best != nullptr &&
                                 token < *best)) {
        best = &token;
        best_count = count;
      }
    }
    if (best) best_successor_[dictionary.token(context)] = *best;
  }

  const std::vector<uint64_t> unigram = sequence.IdCounts();
  uint64_t best_count = 0;
  for (uint32_t id = 0; id < unigram.size(); ++id) {
    if (unigram[id] == 0) continue;
    const Token& token = dictionary.token(id);
    if (unigram[id] > best_count ||
        (unigram[id] == best_count && token < global_fallback_)) {
      global_fallback_ = token;
      best_count = unigram[id];
    }
  }
}

Token BigramModel::Predict(const Token& token) const {
  auto it = best_successor_.find(token);
  if (it != best_successor_.end()) return it->second;
  return global_fallback_;
}

double BigramModel::Accuracy(const Dataset& sequence) const {
  const RowIds& ids = sequence.ids();
  if (ids.size() < 2) return 0.0;
  // The prediction after each token of the sequence's dictionary, as an
  // id of that dictionary (no id when the predicted token is absent).
  constexpr uint32_t kNoId = std::numeric_limits<uint32_t>::max();
  const TokenDictionary& dictionary = sequence.dictionary();
  std::vector<uint32_t> predicted(dictionary.size());
  for (uint32_t id = 0; id < predicted.size(); ++id) {
    predicted[id] =
        dictionary.Find(Predict(dictionary.token(id))).value_or(kNoId);
  }
  size_t correct = 0;
  for (size_t i = 1; i < ids.size(); ++i) {
    if (predicted[ids[i - 1]] == ids[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(ids.size() - 1);
}

double TrainTestAccuracy(const Dataset& sequence, double train_fraction) {
  const RowIds& ids = sequence.ids();
  size_t split = static_cast<size_t>(static_cast<double>(ids.size()) *
                                     std::clamp(train_fraction, 0.0, 1.0));
  if (split < 2 || split >= ids.size()) return 0.0;

  const auto middle = ids.begin() + static_cast<ptrdiff_t>(split);
  Dataset train(sequence.shared_dictionary(), RowIds(ids.begin(), middle));
  Dataset test(sequence.shared_dictionary(), RowIds(middle, ids.end()));
  BigramModel model;
  model.Train(train);
  return model.Accuracy(test);
}

}  // namespace freqywm
