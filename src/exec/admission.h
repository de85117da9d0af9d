#ifndef FREQYWM_EXEC_ADMISSION_H_
#define FREQYWM_EXEC_ADMISSION_H_

#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "exec/cancellation.h"

namespace freqywm {

/// Configuration of an `AdmissionController` (DESIGN.md §14): two work
/// budgets. Each defaults to 0 = "unlimited", so a default-constructed
/// controller admits everything — overload protection is strictly opt-in
/// and the unthrottled paths stay byte-identical.
struct AdmissionOptions {
  /// Maximum work units (suspects) admitted but not yet released. 0 =
  /// unlimited. This is the semaphore bound on in-flight work: the
  /// product of this and per-suspect memory is the engine's working-set
  /// ceiling.
  size_t max_in_flight = 0;

  /// Maximum work units that may sit in blocking `Admit` calls waiting
  /// for capacity. 0 = unlimited. This is the bounded pending-work
  /// budget: once the waiting room is full, further callers are shed
  /// immediately with `kResourceExhausted` instead of queueing without
  /// bound — overload degrades to typed sheds, never to memory growth.
  size_t max_pending = 0;
};

/// Why shed requests were shed, plus the admit counters — the
/// admission half of the engine health snapshot (exec/health.h).
/// Monotonic since construction; gauges (`in_flight`, `pending`) are
/// instantaneous.
struct AdmissionStats {
  /// Work units admitted (sum over all successful Try/Admit calls).
  uint64_t admitted = 0;
  /// Requests shed because `max_in_flight` or `max_pending` was reached.
  uint64_t shed_capacity = 0;
  /// Requests shed because their deadline expired before admission.
  uint64_t shed_deadline = 0;
  /// Work units currently admitted and not yet released.
  size_t in_flight = 0;
  /// Work units currently waiting inside blocking `Admit` calls.
  size_t pending = 0;

  uint64_t total_shed() const { return shed_capacity + shed_deadline; }
};

/// The admission/backpressure layer between callers and the detection
/// engine (DESIGN.md §14): a semaphore bound on in-flight work, a
/// bounded waiting-room budget, and deadline and cancellation handling
/// while queued. It bounds work, not rate, and reads no clock of its own
/// (deadlines read theirs in exec/cancellation.cc). Work that is not
/// admitted is *shed* with a typed `kResourceExhausted` status — the
/// graceful degradation contract: under any offered load, memory stays
/// bounded by `max_in_flight + max_pending` units and every rejected
/// caller learns why. Admission never touches admitted work's bytes:
/// verdicts of admitted suspects are identical to an unthrottled run at
/// any thread count (enforced by tests/exec/admission_test.cc and
/// bench_overload).
///
/// Thread-safe: any number of producers may `TryAdmit`/`Admit`
/// concurrently while permits release on other threads.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options = {});

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// RAII lease over admitted work units: releasing (destruction or an
  /// explicit `Release`) returns the units to the in-flight semaphore
  /// and wakes waiting `Admit` callers. Move-only; the controller must
  /// outlive every permit it issued.
  class Permit {
   public:
    Permit() = default;
    Permit(Permit&& other) noexcept
        : controller_(std::exchange(other.controller_, nullptr)),
          units_(std::exchange(other.units_, 0)) {}
    Permit& operator=(Permit&& other) noexcept {
      if (this != &other) {
        Release();
        controller_ = std::exchange(other.controller_, nullptr);
        units_ = std::exchange(other.units_, 0);
      }
      return *this;
    }
    Permit(const Permit&) = delete;
    Permit& operator=(const Permit&) = delete;
    ~Permit() { Release(); }

    /// Returns all units now. Idempotent.
    void Release();

    /// Returns `units` of the lease early (e.g. per drained suspect),
    /// clamped to what the permit still holds.
    void ReleasePartial(size_t units);

    size_t units() const { return units_; }
    bool active() const { return controller_ != nullptr && units_ > 0; }

   private:
    friend class AdmissionController;
    Permit(AdmissionController* controller, size_t units)
        : controller_(controller), units_(units) {}

    AdmissionController* controller_ = nullptr;
    size_t units_ = 0;
  };

  /// Non-blocking admission of `units` work units. Sheds immediately —
  /// typed `kResourceExhausted` — when the in-flight semaphore is full or
  /// `deadline` is already expired (work that would be dead on arrival
  /// is never admitted).
  /// `units == 0` is an error (`kInvalidArgument`): an empty admission
  /// would leak a free pass through every limit.
  Result<Permit> TryAdmit(size_t units, const Deadline& deadline = {});

  /// Blocking admission: waits for in-flight capacity, honoring
  /// `interrupt` (checked once per bounded wait quantum). Sheds without
  /// waiting — typed `kResourceExhausted` — when `units` can never be
  /// admitted (`units > max_in_flight`) or when it must wait and the
  /// waiting room is full (`max_pending` would be exceeded); a request
  /// admissible at once never counts there. Cancellation returns
  /// `kCancelled`; a deadline that expires while queued returns
  /// `kResourceExhausted` too — the work was never admitted, so the
  /// shed taxonomy (DESIGN.md §14) owns the status.
  Result<Permit> Admit(size_t units, const InterruptContext& interrupt);

  /// Point-in-time counters/gauges (one lock).
  AdmissionStats stats() const;

  const AdmissionOptions& options() const { return options_; }

 private:
  void Release(size_t units);

  const AdmissionOptions options_;

  mutable Mutex mu_;
  mutable CondVar released_cv_;
  size_t in_flight_ GUARDED_BY(mu_) = 0;
  size_t pending_ GUARDED_BY(mu_) = 0;
  uint64_t admitted_ GUARDED_BY(mu_) = 0;
  uint64_t shed_capacity_ GUARDED_BY(mu_) = 0;
  uint64_t shed_deadline_ GUARDED_BY(mu_) = 0;
};

}  // namespace freqywm

#endif  // FREQYWM_EXEC_ADMISSION_H_
