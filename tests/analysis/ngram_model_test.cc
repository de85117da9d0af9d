#include "analysis/ngram_model.h"

#include <gtest/gtest.h>

#include "api/freqywm_scheme.h"
#include "datagen/clickstream.h"

namespace freqywm {
namespace {

TEST(BigramModelTest, LearnsDeterministicTransitions) {
  // Perfectly periodic sequence: a -> b -> c -> a ...
  std::vector<Token> seq;
  for (int i = 0; i < 100; ++i) {
    seq.push_back("a");
    seq.push_back("b");
    seq.push_back("c");
  }
  BigramModel model;
  model.Train(Dataset(seq));
  EXPECT_EQ(model.Predict("a"), "b");
  EXPECT_EQ(model.Predict("b"), "c");
  EXPECT_EQ(model.Predict("c"), "a");
  EXPECT_NEAR(model.Accuracy(Dataset(seq)), 1.0, 1e-9);
}

TEST(BigramModelTest, UnseenContextFallsBackToGlobalMode) {
  BigramModel model;
  model.Train(Dataset({"x", "x", "x", "y"}));
  EXPECT_EQ(model.Predict("never-seen"), "x");
}

TEST(BigramModelTest, MajoritySuccessorWins) {
  // a is followed by b twice and c once.
  BigramModel model;
  model.Train(Dataset({"a", "b", "a", "b", "a", "c"}));
  EXPECT_EQ(model.Predict("a"), "b");
}

TEST(BigramModelTest, AccuracyOnShortSequences) {
  BigramModel model;
  model.Train(Dataset({"a", "b"}));
  EXPECT_DOUBLE_EQ(model.Accuracy(Dataset(std::vector<Token>{"a"})), 0.0);
  EXPECT_DOUBLE_EQ(model.Accuracy(Dataset()), 0.0);
}

TEST(TrainTestAccuracyTest, PeriodicSequenceIsPerfect) {
  std::vector<Token> seq;
  for (int i = 0; i < 200; ++i) {
    seq.push_back("p");
    seq.push_back("q");
  }
  EXPECT_NEAR(TrainTestAccuracy(Dataset(seq), 0.8), 1.0, 1e-9);
}

TEST(TrainTestAccuracyTest, DegenerateSplitsReturnZero) {
  EXPECT_DOUBLE_EQ(TrainTestAccuracy(Dataset({"a", "b"}), 0.0), 0.0);
  EXPECT_DOUBLE_EQ(TrainTestAccuracy(Dataset({"a", "b"}), 1.0), 0.0);
}

TEST(TrainTestAccuracyTest, WatermarkingLeavesAccuracyUnchanged) {
  // The §VI ML experiment in miniature: accuracy on the original vs the
  // watermarked stream must be within a fraction of a percent.
  Rng rng(7);
  ClickstreamSpec spec;
  spec.num_urls = 200;
  spec.num_events = 60000;
  spec.num_days = 20;
  auto events = GenerateClickstream(spec, rng);
  Dataset original = ClickstreamTokens(events);

  GenerateOptions o;
  o.budget_percent = 2.0;
  o.modulus_bound = 131;
  o.seed = 99;
  auto wm = FreqyWmScheme(o).EmbedDataset(original);
  ASSERT_TRUE(wm.ok()) << wm.status();

  double acc_original = TrainTestAccuracy(original, 0.8);
  double acc_watermarked = TrainTestAccuracy(wm.value().watermarked, 0.8);
  EXPECT_NEAR(acc_original, acc_watermarked, 0.01);
}

}  // namespace
}  // namespace freqywm
