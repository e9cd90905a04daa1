// Structured error model for environmental / runtime faults.
//
// The library distinguishes two failure classes:
//
//   * programming errors — a caller broke a documented contract (index out
//     of range, mismatched schemas).  These stay OBLIVDB_CHECK → abort
//     (common/check.h); no Status is ever minted for them.
//   * environmental faults — conditions correct code can hit at runtime: a
//     corrupted EncryptedOArray cell, an exhausted EPC budget, a failed
//     task spawn, a cancelled token, a missed deadline.  These are
//     expressed as Status / StatusOr<T> through the fallible entry points
//     (core::RunRecoverable around any operator call, Executor::TryRun).
//
// Deep pipeline code signals an environmental fault with RaiseOrAbort().
// Under a fallible entry point — a RecoveryScope is active on the calling
// thread — the fault unwinds as the internal StatusError exception and
// surfaces as the entry point's Status.  On the legacy abort-only entry
// points (no scope) it aborts with an OBLIVDB-style diagnostic, so
// pre-existing behaviour is unchanged: recovery is strictly opt-in.
//
// Obliviousness note: a Status never encodes row contents.  Every fault
// here is a function of public state (array shapes, ciphertext integrity,
// injector arrival counts, wall-clock) — returning it leaks nothing the
// §3.1 adversary does not already see.

#ifndef OBLIVDB_COMMON_STATUS_H_
#define OBLIVDB_COMMON_STATUS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "common/check.h"

namespace oblivdb {

enum class StatusCode : uint8_t {
  kOk = 0,
  kCancelled,           // ExecContext::cancel_token fired at a checkpoint
  kDeadlineExceeded,    // ExecContext deadline passed at a checkpoint
  kIntegrityViolation,  // authenticated decryption failed (§3.5)
  kResourceExhausted,   // allocation / EPC / pool capacity refused
  kInvalidArgument,     // malformed input to a fallible boundary API
  kUnavailable,         // transient service-side refusal: worker crashed,
                        // circuit open, service draining — safe to retry
};

// Stable upper-snake name ("INTEGRITY_VIOLATION") for logs and tests.
const char* StatusCodeName(StatusCode code);

class Status {
 public:
  Status() = default;  // kOk
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK", or "INTEGRITY_VIOLATION: MAC verification failed ...".
  std::string ToString() const;

  // Call-site context chaining: returns this Status with `op_name` prefixed
  // onto the message ("join: shard[2]: MAC verification failed ..."), so a
  // fault that unwinds through several boundaries names the path that
  // raised it.  The code is preserved; annotating an ok Status is a no-op
  // (there is nothing to locate).
  Status Annotate(std::string_view op_name) const&;
  Status Annotate(std::string_view op_name) &&;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }
  friend bool operator!=(const Status& a, const Status& b) { return !(a == b); }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

// Value-or-Status.  T must be default-constructible (every payload in the
// engine — row vectors, PlanResult, counters — is); the value slot of an
// errored StatusOr holds a default-constructed T that value() refuses to
// hand out.
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT(runtime/explicit)
    OBLIVDB_CHECK(!status_.ok());  // an ok StatusOr must carry a value
  }
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  T& value() {
    OBLIVDB_CHECK(ok());
    return value_;
  }
  const T& value() const {
    OBLIVDB_CHECK(ok());
    return value_;
  }

  T& operator*() { return value(); }
  const T& operator*() const { return value(); }

  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  Status status_;
  T value_{};
};

namespace internal {

// The unwind vehicle between a fault site and the enclosing fallible entry
// point.  Never escapes the library: core::RunRecoverable catches it and
// ThreadPool aborts if a task leaks one.
struct StatusError {
  Status status;
};

// Thread-local depth of active RecoveryScopes.  Plain int, not accessor:
// scope install/teardown is on entry-point boundaries, never hot.
inline thread_local int recovery_depth = 0;

}  // namespace internal

// Marks the calling thread as being inside a fallible entry point: while
// one is active, RaiseOrAbort throws instead of aborting.  Installed by
// core::RunRecoverable (and re-installed on shard worker threads so
// per-shard faults propagate to the driver); strictly thread-local, so a
// scope on the driver never changes behaviour on pool workers.
class RecoveryScope {
 public:
  RecoveryScope() { ++internal::recovery_depth; }
  ~RecoveryScope() { --internal::recovery_depth; }

  RecoveryScope(const RecoveryScope&) = delete;
  RecoveryScope& operator=(const RecoveryScope&) = delete;

  static bool Active() { return internal::recovery_depth > 0; }
};

// Reports an environmental fault from deep pipeline code: throws
// internal::StatusError when a RecoveryScope is active on this thread,
// aborts with a file:line diagnostic otherwise.  `status` must not be ok.
[[noreturn]] void RaiseOrAbort(Status status, const char* file, int line);

}  // namespace oblivdb

#endif  // OBLIVDB_COMMON_STATUS_H_
