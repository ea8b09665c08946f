/// \file
/// Retry policy, capped exponential backoff, and a per-disk circuit
/// breaker for the TCP NAD client.
///
/// The paper's model makes a crashed base register *unresponsive* — a
/// client cannot distinguish it from a slow one, so the emulations never
/// wait for more than a quorum. The transport below that model still has
/// to behave sanely when a disk daemon dies: the client reconnects with
/// capped exponential backoff + jitter (BackoffState), and a per-disk
/// CircuitBreaker turns repeated failures into a *suspicion* the quorum
/// layer can consult (BaseRegisterClient::IsSuspectedCrashed) so a phase
/// stops issuing doomed operations instead of hanging on them.
///
/// All three types are pure state machines: no threads, no sleeps, no
/// clock reads. Time enters only as explicit time_point / duration
/// arguments, so tests drive transitions deterministically (ManualClock)
/// and nadlint's no-sleep rule (scripts/nadlint/) holds trivially.
///
/// Ownership/threading: externally synchronized. NadClient keeps one
/// BackoffState + CircuitBreaker per connection, owned by the
/// connection's event loop and touched only on the loop thread (the
/// DESIGN.md §12 single-writer rule); tests use them single-threaded.
#pragma once

#include <chrono>
#include <cstdint>

#include "common/rng.h"

namespace nadreg::nad {

/// Tunables for reconnect backoff, operation expiry, and circuit breaking.
struct RetryPolicy {
  /// First reconnect delay; doubles per consecutive failure.
  std::chrono::microseconds initial_backoff{std::chrono::milliseconds(1)};
  /// Backoff ceiling.
  std::chrono::microseconds max_backoff{std::chrono::milliseconds(200)};
  /// Random jitter applied to each delay, in permille of the delay
  /// (300 = up to +30%). Jitter decorrelates clients reconnecting to the
  /// same recovered disk.
  std::uint32_t jitter_permille = 300;
  /// Consecutive failures (reconnect failures or operation expiries)
  /// that open the breaker.
  std::uint32_t breaker_threshold = 4;
  /// How long an open breaker rejects before allowing half-open probes.
  std::chrono::microseconds breaker_cooldown{std::chrono::milliseconds(250)};
};

/// Capped exponential backoff with multiplicative jitter.
class BackoffState {
 public:
  explicit BackoffState(const RetryPolicy& policy) : policy_(policy) {}

  /// Delay before the next attempt: min(initial * 2^failures, max),
  /// stretched by up to jitter_permille. Advances the schedule.
  std::chrono::microseconds Next(Rng& rng);

  /// Back to the initial delay (call after a success).
  void Reset() { failures_ = 0; }

  /// Consecutive failures recorded so far.
  std::uint32_t failures() const { return failures_; }

 private:
  RetryPolicy policy_;
  std::uint32_t failures_ = 0;
};

/// Per-disk circuit breaker: closed → open after `breaker_threshold`
/// consecutive failures; open → half-open after `breaker_cooldown`;
/// half-open closes on the first success and re-opens on a failure.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  explicit CircuitBreaker(const RetryPolicy& policy) : policy_(policy) {}

  /// May a request be attempted at `now`? Open: false until the cooldown
  /// elapses, then transitions to half-open and admits probes.
  bool AllowRequest(std::chrono::steady_clock::time_point now);

  /// A request succeeded: closes the breaker and clears the failure run.
  void RecordSuccess();

  /// A request failed (reconnect failure / operation expiry) at `now`.
  /// Returns true when this failure *opens* the breaker (closed/half-open
  /// → open), so the caller can count open transitions.
  bool RecordFailure(std::chrono::steady_clock::time_point now);

  State state() const { return state_; }
  std::uint32_t consecutive_failures() const { return failures_; }

 private:
  RetryPolicy policy_;
  State state_ = State::kClosed;
  std::uint32_t failures_ = 0;
  std::chrono::steady_clock::time_point opened_at_{};
};

}  // namespace nadreg::nad
