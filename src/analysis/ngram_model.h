#ifndef FREQYWM_ANALYSIS_NGRAM_MODEL_H_
#define FREQYWM_ANALYSIS_NGRAM_MODEL_H_

#include <string>
#include <unordered_map>

#include "data/dataset.h"

namespace freqywm {

/// Bigram (first-order Markov) next-token predictor.
///
/// Stand-in for the paper's §VI TensorFlow LSTM next-URL model (see
/// DESIGN.md substitutions): the experiment's claim is that watermarking
/// leaves sequence statistics intact, and any predictor driven by token
/// transition statistics demonstrates that invariance. Prediction: argmax
/// over observed successors of the previous token, falling back to the
/// globally most frequent token for unseen contexts.
class BigramModel {
 public:
  /// Fits transition counts on a token sequence.
  void Train(const Dataset& sequence);

  /// Predicts the most likely successor of `token` ("" if never seen and
  /// no global fallback exists).
  Token Predict(const Token& token) const;

  /// Fraction of positions t in `sequence` (t >= 1) where
  /// Predict(sequence[t-1]) == sequence[t].
  double Accuracy(const Dataset& sequence) const;

  /// Number of distinct contexts learned.
  size_t num_contexts() const { return best_successor_.size(); }

 private:
  std::unordered_map<Token, Token> best_successor_;
  Token global_fallback_;
};

/// Convenience harness: train on the first `train_fraction` of `sequence`,
/// report accuracy on the remainder (the §VI protocol: same architecture,
/// original vs watermarked stream).
double TrainTestAccuracy(const Dataset& sequence, double train_fraction);

}  // namespace freqywm

#endif  // FREQYWM_ANALYSIS_NGRAM_MODEL_H_
