// The verdict settings a prepared key carries: for every registered scheme
// and three kinds of key (its own, another scheme's, a malformed payload
// under its own tag), `Prepare(key)->recommended_options()`,
// `RecommendedDetectOptions(key)` and a session given no options must all
// use the recorded (k, t), so a change to a scheme's settings is a
// deliberate edit here. A newly registered scheme needs rows too.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/factory.h"
#include "api/scheme.h"
#include "common/random.h"
#include "datagen/power_law.h"
#include "exec/batch_detector.h"
#include "exec/cancellation.h"

namespace freqywm {
namespace {

enum class KeyKind { kOwn, kForeign, kMalformed };
const char* const kKindNames[] = {"own", "foreign", "malformed"};

struct RecordedSettings {
  std::string scheme;
  KeyKind kind;
  size_t min_pairs;
  uint64_t pair_threshold;
};

// FreqyWM's own key has |Lwm| = 24 pairs on this base, so k = 12.
const RecordedSettings kRecorded[] = {
    {"freqywm", KeyKind::kOwn, 12, 0},
    {"freqywm", KeyKind::kForeign, 1, 0},
    {"freqywm", KeyKind::kMalformed, 1, 0},
    {"wm-obt", KeyKind::kOwn, 2, 1},
    {"wm-obt", KeyKind::kForeign, 2, 1},
    {"wm-obt", KeyKind::kMalformed, 2, 1},
    {"wm-rvs", KeyKind::kOwn, 4, 0},
    {"wm-rvs", KeyKind::kForeign, 4, 0},
    {"wm-rvs", KeyKind::kMalformed, 4, 0},
};

Histogram MakeCleanHistogram(uint64_t seed) {
  Rng rng(seed);
  PowerLawSpec spec;
  spec.num_tokens = 300;
  spec.sample_size = 200000;
  spec.alpha = 0.6;
  return GeneratePowerLawHistogram(spec, rng);
}

/// Every registered scheme's own key and watermarked copy, embedded with
/// seed 42 off one clean base.
struct Fixture {
  Histogram original = MakeCleanHistogram(11);
  std::vector<std::string> names = SchemeFactory::RegisteredNames();
  std::vector<EmbedOutcome> outcomes;

  Fixture() {
    for (const std::string& name : names) {
      OptionBag bag;
      bag.Set("seed", "42");
      auto scheme = SchemeFactory::Create(name, bag);
      EXPECT_TRUE(scheme.ok()) << scheme.status();
      auto outcome = scheme.value()->Embed(original);
      EXPECT_TRUE(outcome.ok()) << name << ": " << outcome.status();
      outcomes.push_back(std::move(outcome).value());
    }
  }

  /// Index of `scheme` in `names`.
  size_t IndexOf(const std::string& scheme) const {
    return std::find(names.begin(), names.end(), scheme) - names.begin();
  }

  /// The key of kind `kind` presented to scheme `names[x]`; the foreign
  /// key is the next registered scheme's own key.
  SchemeKey Key(size_t x, KeyKind kind) const {
    switch (kind) {
      case KeyKind::kOwn:
        return outcomes[x].key;
      case KeyKind::kForeign:
        return outcomes[(x + 1) % names.size()].key;
      case KeyKind::kMalformed:
        break;
    }
    return SchemeKey{names[x], "not a key\n"};
  }
};

const Fixture& SharedFixture() {
  static const Fixture* fixture = new Fixture();
  return *fixture;
}

TEST(RecommendedOptionsTest, PreparedKeyCarriesRecordedSettings) {
  const Fixture& f = SharedFixture();
  ASSERT_EQ(f.outcomes.size(), f.names.size());
  for (const std::string& name : f.names) {
    size_t rows = 0;
    for (const RecordedSettings& row : kRecorded) rows += row.scheme == name;
    EXPECT_EQ(rows, 3u) << "record the settings of scheme '" << name << "'";
  }
  for (const RecordedSettings& row : kRecorded) {
    SCOPED_TRACE(row.scheme + ", " + kKindNames[static_cast<int>(row.kind)] +
                 " key");
    const size_t x = f.IndexOf(row.scheme);
    ASSERT_LT(x, f.names.size()) << "scheme not registered";
    auto scheme = SchemeFactory::Create(row.scheme);
    ASSERT_TRUE(scheme.ok()) << scheme.status();
    const SchemeKey key = f.Key(x, row.kind);

    const DetectOptions prepared =
        scheme.value()->Prepare(key)->recommended_options();
    const DetectOptions forwarded =
        scheme.value()->RecommendedDetectOptions(key);
    for (const DetectOptions& options : {prepared, forwarded}) {
      EXPECT_EQ(options.min_pairs, row.min_pairs);
      EXPECT_EQ(options.pair_threshold, row.pair_threshold);
      EXPECT_FALSE(options.symmetric_residue);
      EXPECT_EQ(options.rescale_factor, 0.0);
    }
  }
}

TEST(RecommendedOptionsTest, UnsetSessionOptionsUseRecordedSettings) {
  // A session dispatches each key by its own tag, so a foreign key runs
  // as its own scheme's key there; the own and malformed kinds carry the
  // scheme's tag and reach its prepared key.
  const Fixture& f = SharedFixture();
  for (const RecordedSettings& row : kRecorded) {
    if (row.kind == KeyKind::kForeign) continue;
    SCOPED_TRACE(row.scheme + ", " + kKindNames[static_cast<int>(row.kind)] +
                 " key");
    const size_t x = f.IndexOf(row.scheme);
    ASSERT_LT(x, f.names.size()) << "scheme not registered";
    auto scheme = SchemeFactory::Create(row.scheme);
    ASSERT_TRUE(scheme.ok()) << scheme.status();
    const SchemeKey key = f.Key(x, row.kind);
    const std::vector<Histogram> suspects{f.outcomes[x].watermarked,
                                          f.original};

    DetectOptions recorded;
    recorded.min_pairs = row.min_pairs;
    recorded.pair_threshold = row.pair_threshold;
    for (size_t threads : {1, 4}) {
      BatchDetectOptions options;
      options.num_threads = threads;
      SessionDrainResult drained =
          BatchDetector::Session(options, {key})
              .DetectChecked(suspects, InterruptContext{});
      ASSERT_TRUE(drained.status.ok()) << drained.status;
      ASSERT_EQ(drained.verdicts.size(), suspects.size());
      for (size_t i = 0; i < suspects.size(); ++i) {
        EXPECT_TRUE(drained.verdicts[i][0] ==
                    scheme.value()->Detect(suspects[i], key, recorded))
            << "suspect " << i << " at " << threads << " threads";
      }
    }
    if (row.kind == KeyKind::kOwn) {
      EXPECT_TRUE(scheme.value()->Detect(suspects[0], key, recorded).accepted);
    }
  }
}

}  // namespace
}  // namespace freqywm
