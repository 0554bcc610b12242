// Error-code based status handling (no exceptions), in the spirit of
// absl::Status but specialized for the MittOS interface: EBUSY is a
// first-class, *expected* outcome of an SLO-aware IO, not an error.

#ifndef MITTOS_COMMON_STATUS_H_
#define MITTOS_COMMON_STATUS_H_

#include <cstdint>
#include <string_view>

#include "src/common/time.h"

namespace mitt {

enum class StatusCode : uint8_t {
  kOk = 0,
  // The OS predicts the IO's SLO cannot be met; the caller should fail over.
  kEbusy = 1,
  kNotFound = 2,
  kTimeout = 3,
  kInvalidArgument = 4,
  kCancelled = 5,
  kUnavailable = 6,
  kInternal = 7,
  // A deadline-budget get ran out of SLO before any replica answered: the
  // remaining budget clamped to zero (see resilience::DeadlineBudget).
  // Distinct from kTimeout so callers can tell "the budget accounting said
  // stop" from "a per-attempt timer fired".
  kDeadlineExhausted = 8,
};

std::string_view StatusCodeName(StatusCode code);

// Lightweight value-type status. Copyable, trivially destructible.
//
// An EBUSY (or a degraded-path shed, kUnavailable) may carry a wait hint:
// the OS' predicted wait before the IO could be served (§7.8.1/§8.1, "return
// the expected wait time"), so a client whose replicas all reject can pick
// the least busy one. The hint is payload, not identity: operator== compares
// codes only, and wait_hint() is 0 unless a hint was set.
class Status {
 public:
  constexpr Status() : code_(StatusCode::kOk) {}
  constexpr explicit Status(StatusCode code) : code_(code) {}

  static constexpr Status Ok() { return Status(StatusCode::kOk); }
  static constexpr Status Ebusy(DurationNs wait_hint = 0) {
    return Status(StatusCode::kEbusy, wait_hint);
  }
  static constexpr Status NotFound() { return Status(StatusCode::kNotFound); }
  static constexpr Status Timeout() { return Status(StatusCode::kTimeout); }
  static constexpr Status InvalidArgument() { return Status(StatusCode::kInvalidArgument); }
  static constexpr Status Cancelled() { return Status(StatusCode::kCancelled); }
  static constexpr Status Unavailable(DurationNs wait_hint = 0) {
    return Status(StatusCode::kUnavailable, wait_hint);
  }
  static constexpr Status Internal() { return Status(StatusCode::kInternal); }
  static constexpr Status DeadlineExhausted() { return Status(StatusCode::kDeadlineExhausted); }

  constexpr bool ok() const { return code_ == StatusCode::kOk; }
  constexpr bool busy() const { return code_ == StatusCode::kEbusy; }
  constexpr StatusCode code() const { return code_; }
  constexpr DurationNs wait_hint() const { return wait_hint_; }

  constexpr bool operator==(const Status& other) const { return code_ == other.code_; }

  std::string_view name() const { return StatusCodeName(code_); }

 private:
  constexpr Status(StatusCode code, DurationNs wait_hint) : code_(code), wait_hint_(wait_hint) {}

  StatusCode code_;
  DurationNs wait_hint_ = 0;
};

// Completion closures capture a Status by value next to a callback; keep it
// at two words so those captures stay inside InlineFunction's buffer.
static_assert(sizeof(Status) <= 16);

}  // namespace mitt

#endif  // MITTOS_COMMON_STATUS_H_
