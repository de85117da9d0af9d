#include "exec/admission.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>

#include "exec/fault_injection.h"

namespace freqywm {
namespace {

// The monotonic-clock read behind the default `AdmissionOptions::
// clock_nanos` (determinism allowlist: admission gates *whether* work is
// admitted, never *what* admitted work computes — verdict bytes derive
// only from (suspect, key, options)).
int64_t RealNowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr int64_t kWaitQuantumNanos = 10 * 1000 * 1000;  // 10 ms

double EffectiveBurst(const AdmissionOptions& options) {
  if (options.rate_per_unit_time <= 0) return 0;
  if (options.burst > 0) return options.burst;
  return std::max(1.0, options.rate_per_unit_time);
}

}  // namespace

void AdmissionController::Permit::Release() {
  if (controller_ != nullptr && units_ > 0) {
    controller_->Release(units_);
  }
  controller_ = nullptr;
  units_ = 0;
}

void AdmissionController::Permit::ReleasePartial(size_t units) {
  if (controller_ == nullptr) return;
  const size_t give = std::min(units, units_);
  if (give == 0) return;
  controller_->Release(give);
  units_ -= give;
  if (units_ == 0) controller_ = nullptr;
}

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(std::move(options)),
      effective_burst_(EffectiveBurst(options_)),
      tokens_(effective_burst_) {}

int64_t AdmissionController::Now() const {
  return options_.clock_nanos ? options_.clock_nanos() : RealNowNanos();
}

double AdmissionController::RefillLocked(int64_t now) {
  if (options_.rate_per_unit_time <= 0) return tokens_;
  if (!bucket_initialized_) {
    // First observation of the clock: the bucket starts full. Anchoring
    // here (not in the constructor) keeps construction clock-free under
    // an injected clock.
    bucket_initialized_ = true;
    last_refill_nanos_ = now;
    return tokens_;
  }
  const int64_t elapsed = now - last_refill_nanos_;
  if (elapsed > 0) {
    tokens_ = std::min(effective_burst_,
                       tokens_ + options_.rate_per_unit_time *
                                     (static_cast<double>(elapsed) / 1e9));
    last_refill_nanos_ = now;
  }
  return tokens_;
}

int64_t AdmissionController::NanosUntilTokensLocked(double units,
                                                    int64_t now) {
  if (options_.rate_per_unit_time <= 0) return 0;
  const double level = RefillLocked(now);
  if (level >= units) return 0;
  const double nanos =
      std::ceil((units - level) / options_.rate_per_unit_time * 1e9);
  constexpr double kMaxNanos = 9.0e18;
  if (nanos >= kMaxNanos) return std::numeric_limits<int64_t>::max();
  return static_cast<int64_t>(nanos);
}

Result<AdmissionController::Permit> AdmissionController::TryAdmit(
    size_t units, const Deadline& deadline) {
  if (units == 0) {
    return Status::InvalidArgument("admission of zero work units");
  }
  FREQYWM_FAULT_POINT("admission/acquire");
  const double want = static_cast<double>(units);
  MutexLock lock(mu_);
  if (deadline.finite() && deadline.expired()) {
    ++shed_deadline_;
    return Status::ResourceExhausted(
        "shed: deadline already expired at admission");
  }
  if (options_.max_in_flight > 0 &&
      in_flight_ + units > options_.max_in_flight) {
    ++shed_capacity_;
    return Status::ResourceExhausted(
        "shed: in-flight capacity exhausted (" +
        std::to_string(in_flight_) + "/" +
        std::to_string(options_.max_in_flight) + " units)");
  }
  if (options_.rate_per_unit_time > 0) {
    if (RefillLocked(Now()) < want) {
      ++shed_rate_;
      return Status::ResourceExhausted("shed: rate limit exceeded");
    }
    tokens_ -= want;
  }
  in_flight_ += units;
  admitted_ += units;
  return Permit(this, units);
}

Result<AdmissionController::Permit> AdmissionController::Admit(
    size_t units, const InterruptContext& interrupt) {
  if (units == 0) {
    return Status::InvalidArgument("admission of zero work units");
  }
  FREQYWM_FAULT_POINT("admission/acquire");
  const double want = static_cast<double>(units);
  MutexLock lock(mu_);

  // Requests that can never be satisfied shed immediately instead of
  // waiting forever.
  if (options_.max_in_flight > 0 && units > options_.max_in_flight) {
    ++shed_capacity_;
    return Status::ResourceExhausted(
        "shed: request of " + std::to_string(units) +
        " units exceeds max_in_flight " +
        std::to_string(options_.max_in_flight));
  }
  if (options_.rate_per_unit_time > 0 && want > effective_burst_) {
    ++shed_rate_;
    return Status::ResourceExhausted(
        "shed: request exceeds token-bucket burst capacity");
  }
  // A request admissible now is admitted at once; only a caller that must
  // wait passes the waiting-room and deadline screens below and counts
  // toward `pending_`.
  bool queued = false;
  Status verdict = Status::OK();
  for (;;) {
    if (interrupt.cancel.cancelled()) {
      verdict = Status::Cancelled("operation cancelled");
      break;
    }
    if (interrupt.deadline.finite() && interrupt.deadline.expired()) {
      // Expired while waiting on in-flight capacity (token waits are
      // pre-screened below): the work was never admitted, so this is a
      // shed, not a deadline failure of running work.
      ++shed_deadline_;
      verdict = Status::ResourceExhausted(
          "shed: deadline expired while queued for capacity");
      break;
    }
    const bool capacity_ok =
        options_.max_in_flight == 0 ||
        in_flight_ + units <= options_.max_in_flight;
    const int64_t token_wait =
        options_.rate_per_unit_time > 0 ? NanosUntilTokensLocked(want, Now())
                                        : 0;
    if (capacity_ok && token_wait == 0) {
      if (options_.rate_per_unit_time > 0) tokens_ -= want;
      in_flight_ += units;
      admitted_ += units;
      break;
    }
    if (!queued) {
      // Bounded waiting room: beyond the pending budget, callers are
      // shed, not queued — this is what caps the memory an overload can
      // pin.
      if (options_.max_pending > 0 &&
          pending_ + units > options_.max_pending) {
        ++shed_capacity_;
        return Status::ResourceExhausted(
            "shed: admission waiting room full (" +
            std::to_string(pending_) + "/" +
            std::to_string(options_.max_pending) + " units pending)");
      }
      // Deadline-aware admission: if the bucket cannot possibly produce
      // the tokens before the caller's deadline, the work would expire
      // while queued — reject it now so the queue never holds dead work.
      if (interrupt.deadline.finite() &&
          token_wait > interrupt.deadline.remaining().count()) {
        ++shed_deadline_;
        return Status::ResourceExhausted(
            "shed: deadline would expire while queued for rate tokens");
      }
      pending_ += units;
      queued = true;
    }
    // Bounded sleep: woken early by a release; re-checks interruption at
    // least once per quantum even if no release ever comes. Under an
    // injected clock the token wait is exact, so sleeping the smaller of
    // (quantum, token_wait) never oversleeps a refill.
    int64_t nap = kWaitQuantumNanos;
    if (!capacity_ok) {
      // waiting on a release; quantum only
    } else if (token_wait > 0 && token_wait < nap) {
      nap = token_wait;
    }
    if (options_.clock_nanos) {
      // Fake clock: real sleeping would deadlock a single-threaded test
      // (time only advances when the test advances it). Yield the lock
      // briefly and re-poll.
      released_cv_.WaitFor(mu_, std::chrono::nanoseconds(1));
    } else {
      released_cv_.WaitFor(mu_, std::chrono::nanoseconds(nap));
    }
  }
  if (queued) pending_ -= units;
  if (!verdict.ok()) return verdict;
  return Permit(this, units);
}

void AdmissionController::Release(size_t units) {
  {
    MutexLock lock(mu_);
    in_flight_ -= std::min(units, in_flight_);
  }
  released_cv_.NotifyAll();
}

AdmissionStats AdmissionController::stats() const {
  MutexLock lock(mu_);
  AdmissionStats out;
  out.admitted = admitted_;
  out.shed_rate = shed_rate_;
  out.shed_capacity = shed_capacity_;
  out.shed_deadline = shed_deadline_;
  out.in_flight = in_flight_;
  out.pending = pending_;
  return out;
}

}  // namespace freqywm
