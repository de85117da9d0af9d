// Thread-safety of the `SchemeFactory` table: concurrent creation and
// enumeration read the constant table without a lock and must be
// race-free — the batch detection engine instantiates schemes from many
// threads. Run under ThreadSanitizer in CI (`-fsanitize=thread`).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/factory.h"

namespace freqywm {
namespace {

TEST(SchemeFactoryConcurrencyTest, ParallelCreateAndEnumerate) {
  constexpr int kThreads = 8;
  constexpr int kIters = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&failures] {
      for (int i = 0; i < kIters; ++i) {
        for (const std::string& name : SchemeFactory::RegisteredNames()) {
          auto scheme = SchemeFactory::Create(name);
          if (!scheme.ok() || scheme.value()->name().empty()) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace freqywm
