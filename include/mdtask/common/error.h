// Error handling primitives for the mdtask library.
//
// The library reports recoverable failures through Result<T> rather than
// exceptions so that hot kernels and the task engines can stay
// exception-free on the fast path (C++ Core Guidelines E.3, E.6 applied to
// a context where callers always inspect the outcome).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <variant>

namespace mdtask {

/// Error category used across the library.
enum class ErrorCode {
  kInvalidArgument,
  kOutOfRange,
  kIoError,
  kFormatError,
  kResourceExhausted,  ///< e.g. simulated worker memory limit exceeded
  kUnavailable,        ///< e.g. simulated database unreachable
  kOverloaded,         ///< service admission control shed the request
  kDeadlineExceeded,   ///< the request's completion deadline passed
  kCancelled,
  kInternal,
};

/// Human-readable name of an ErrorCode.
const char* to_string(ErrorCode code) noexcept;

/// Structured context for a task-level failure: which engine ran the
/// task, which task and attempt failed, and which fault kind (if any)
/// caused it. Attached to Errors by the engine runtimes so callers and
/// logs can correlate a failure with the fault-injection schedule
/// without parsing message strings.
struct TaskFailureContext {
  std::string engine;         ///< "spark" | "dask" | "rp" | "mpi"
  std::uint64_t task_id = 0;  ///< engine-level deterministic task id
  int attempt = 0;            ///< 0-based attempt that failed
  std::string fault_kind;     ///< fault::to_string(kind); "" = not injected

  /// " [engine=dask task=12 attempt=2 fault=worker-oom-kill]" rendering
  /// (fault omitted when empty).
  std::string to_string() const;
};

/// A recoverable error: a code plus a context message, optionally
/// annotated with the task-level failure context.
class Error {
 public:
  Error(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  ErrorCode code() const noexcept { return code_; }
  const std::string& message() const noexcept { return message_; }

  /// Attaches task-failure context (builder style, chainable).
  Error&& with_task(TaskFailureContext context) && {
    task_ = std::move(context);
    return std::move(*this);
  }
  Error& with_task(TaskFailureContext context) & {
    task_ = std::move(context);
    return *this;
  }

  /// The task-level failure context, when an engine attached one.
  const std::optional<TaskFailureContext>& task() const noexcept {
    return task_;
  }

  /// "kIoError: could not open file" style rendering; appends the task
  /// context when present.
  std::string to_string() const;

 private:
  ErrorCode code_;
  std::string message_;
  std::optional<TaskFailureContext> task_;
};

/// Minimal expected-like result type. Holds either a value or an Error.
///
/// Usage:
///   Result<Trajectory> r = read_trajectory(path);
///   if (!r.ok()) return r.error();
///   use(r.value());
template <typename T>
class Result {
 public:
  Result(T value) : data_(std::move(value)) {}          // NOLINT(implicit)
  Result(Error error) : data_(std::move(error)) {}      // NOLINT(implicit)

  bool ok() const noexcept { return std::holds_alternative<T>(data_); }
  explicit operator bool() const noexcept { return ok(); }

  const T& value() const& { return std::get<T>(data_); }
  T& value() & { return std::get<T>(data_); }
  T&& value() && { return std::get<T>(std::move(data_)); }

  const Error& error() const { return std::get<Error>(data_); }

  /// Returns the value or a fallback if this holds an error.
  T value_or(T fallback) const& {
    return ok() ? std::get<T>(data_) : std::move(fallback);
  }

 private:
  std::variant<T, Error> data_;
};

/// Result specialization for operations with no payload.
class Status {
 public:
  Status() = default;                                   // success
  Status(Error error) : error_(std::move(error)) {}     // NOLINT(implicit)

  bool ok() const noexcept { return !error_.has_value(); }
  explicit operator bool() const noexcept { return ok(); }
  const Error& error() const { return *error_; }

  static Status success() { return Status(); }

 private:
  std::optional<Error> error_;
};

}  // namespace mdtask
