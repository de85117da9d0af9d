// Bounded-session suite (DESIGN.md §14): a `BatchDetector::Session` has
// no queue budget of its own — the tenant's admission controller is the
// only bound on queued suspects (tests/analysis/tenant_test.cc,
// tests/exec/admission_test.cc) — so `AddSuspects` queues every batch.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/factory.h"
#include "common/random.h"
#include "datagen/power_law.h"
#include "exec/batch_detector.h"

namespace freqywm {
namespace {

Histogram MakeHistogram(uint64_t seed) {
  Rng rng(seed);
  PowerLawSpec spec;
  spec.num_tokens = 150;
  spec.sample_size = 60000;
  spec.alpha = 0.6;
  return GeneratePowerLawHistogram(spec, rng);
}

/// Embedded keys + suspects shared by the suite (built once; the
/// fixture never mutates them).
struct BoundedFixture {
  std::vector<SchemeKey> keys;
  std::vector<Histogram> suspects;

  BoundedFixture() {
    Histogram original = MakeHistogram(77);
    for (uint64_t seed : {501, 502}) {
      OptionBag bag;
      bag.Set("seed", std::to_string(seed));
      auto scheme = SchemeFactory::Create("freqywm", bag);
      EXPECT_TRUE(scheme.ok());
      auto outcome = scheme.value()->Embed(original);
      EXPECT_TRUE(outcome.ok()) << outcome.status();
      keys.push_back(outcome.value().key);
      suspects.push_back(outcome.value().watermarked);
    }
    suspects.push_back(original);
    suspects.push_back(MakeHistogram(78));
  }
};

const BoundedFixture& Fixture() {
  static const BoundedFixture* fixture = new BoundedFixture();
  return *fixture;
}

std::vector<Histogram> Batch(size_t from, size_t count) {
  std::vector<Histogram> out;
  for (size_t i = 0; i < count; ++i) {
    out.push_back(Fixture().suspects[(from + i) % Fixture().suspects.size()]);
  }
  return out;
}

TEST(BoundedSessionTest, NoBudgetMeansTryAddNeverSheds) {
  BatchDetectOptions options;
  BatchDetector::Session session(options, Fixture().keys);
  session.AddSuspects(Batch(0, 100));
  EXPECT_EQ(session.pending_suspects(), 100u);
}

}  // namespace
}  // namespace freqywm
