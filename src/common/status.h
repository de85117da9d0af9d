#ifndef FREQYWM_COMMON_STATUS_H_
#define FREQYWM_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace freqywm {

/// Machine-readable category of a `Status`.
///
/// The set mirrors the error taxonomy used by embedded database libraries
/// (RocksDB / Arrow): callers branch on the code, humans read the message.
enum class StatusCode {
  kOk = 0,
  /// A caller-supplied argument violates a documented precondition.
  kInvalidArgument,
  /// A lookup failed (token, pair, or file not present).
  kNotFound,
  /// An internal invariant was violated; indicates a library bug.
  kInternal,
  /// The operation is valid but unsupported in the current configuration.
  kNotSupported,
  /// The operation could not complete because a resource limit was reached
  /// (e.g., watermarking budget exhausted before any pair was selected).
  kResourceExhausted,
  /// Input bytes could not be parsed (corrupt secret file, malformed CSV).
  kCorruption,
  /// The operation was cooperatively cancelled via a `CancellationToken`
  /// before it completed (exec/cancellation.h). Partial side effects are
  /// documented per API; results derived from a cancelled call must be
  /// discarded.
  kCancelled,
  /// The operation's monotonic `Deadline` expired before it completed.
  /// Like `kCancelled`, a cooperative interruption — never an invariant
  /// violation.
  kDeadlineExceeded,
  /// A transient, retryable failure (I/O hiccup, injected fault). The
  /// operation may succeed if the caller retries it; every other code is
  /// permanent.
  kUnavailable,
};

/// Returns a stable lowercase name for `code` ("ok", "invalid_argument", ...).
std::string_view StatusCodeToString(StatusCode code);

/// Value-semantic success/error carrier used across all public APIs.
///
/// FreqyWM never throws across public API boundaries; fallible operations
/// return `Status` (or `Result<T>` when they also produce a value). A default
/// constructed `Status` is OK and stores no message.
///
/// The class is `[[nodiscard]]`: any call that returns a `Status` by value
/// and drops it on the floor is a compile error under `-Werror`
/// (DESIGN.md §11) — silently ignoring a failed `Register` or `Deserialize`
/// is how corrupt registries ship. The rare intentional discard is written
/// `(void)expr;` with a comment justifying why failure is acceptable.
///
/// Typical usage:
/// \code
///   Status s = generator.Run(dataset);
///   if (!s.ok()) return s;  // propagate
/// \endcode
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  /// Constructs a status with an explicit code and human-readable message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  /// Factory helpers, one per non-OK code.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  /// True iff the status carries no error.
  [[nodiscard]] bool ok() const { return code_ == StatusCode::kOk; }

  /// The machine-readable code.
  StatusCode code() const { return code_; }

  /// The human-readable message; empty for OK statuses.
  const std::string& message() const { return message_; }

  /// "ok" or "<code>: <message>" for logs and test failure output.
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// Propagates a non-OK status to the caller. Requires the enclosing function
/// to return `Status` (or a type constructible from `Status`).
#define FREQYWM_RETURN_NOT_OK(expr)           \
  do {                                        \
    ::freqywm::Status _st = (expr);           \
    if (!_st.ok()) return _st;                \
  } while (false)

}  // namespace freqywm

#endif  // FREQYWM_COMMON_STATUS_H_
