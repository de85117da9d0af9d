#include "exec/admission.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "exec/fault_injection.h"

namespace freqywm {
namespace {

constexpr std::chrono::milliseconds kWaitQuantum{10};

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
    : options_(std::move(options)) {}

Result<AdmissionController::Permit> AdmissionController::TryAdmit(
    size_t units, const Deadline& deadline) {
  if (units == 0) {
    return Status::InvalidArgument("admission of zero work units");
  }
  FREQYWM_FAULT_POINT("admission/acquire");
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
  MutexLock lock(mu_);

  // A request that can never be satisfied sheds immediately instead of
  // waiting forever.
  if (options_.max_in_flight > 0 && units > options_.max_in_flight) {
    ++shed_capacity_;
    return Status::ResourceExhausted(
        "shed: request of " + std::to_string(units) +
        " units exceeds max_in_flight " +
        std::to_string(options_.max_in_flight));
  }
  // A request admissible now is admitted at once; only a caller that must
  // wait passes the waiting-room screen below and counts toward
  // `pending_`.
  bool queued = false;
  Status verdict = Status::OK();
  for (;;) {
    if (interrupt.cancel.cancelled()) {
      verdict = Status::Cancelled("operation cancelled");
      break;
    }
    if (interrupt.deadline.finite() && interrupt.deadline.expired()) {
      // Expired while waiting on in-flight capacity: the work was never
      // admitted, so this is a shed, not a deadline failure of running
      // work.
      ++shed_deadline_;
      verdict = Status::ResourceExhausted(
          "shed: deadline expired while queued for capacity");
      break;
    }
    if (options_.max_in_flight == 0 ||
        in_flight_ + units <= options_.max_in_flight) {
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
      pending_ += units;
      queued = true;
    }
    // Bounded sleep: woken early by a release; re-checks interruption at
    // least once per quantum even if no release ever comes.
    released_cv_.WaitFor(mu_, kWaitQuantum);
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
  out.shed_capacity = shed_capacity_;
  out.shed_deadline = shed_deadline_;
  out.in_flight = in_flight_;
  out.pending = pending_;
  return out;
}

}  // namespace freqywm
