#ifndef FREQYWM_COMMON_STOPWATCH_H_
#define FREQYWM_COMMON_STOPWATCH_H_

#include <chrono>

namespace freqywm {

/// Wall-clock stopwatch for the coarse Gen/Detect timings in Table II.
///
/// Microbenchmarks use google-benchmark; this class exists for the
/// end-to-end experiment harnesses where a single run is timed.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Seconds elapsed since construction.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace freqywm

#endif  // FREQYWM_COMMON_STOPWATCH_H_
