/// \file
/// Injectable monotonic clock for everything that schedules or expires
/// work: retry backoff deadlines, circuit-breaker cool-downs, fault-plan
/// event times. Production code asks a Clock* for `Now()` instead of
/// calling std::chrono::steady_clock::now() directly, so tests can drive
/// time deterministically (ManualClock) and the invariant linter can
/// forbid raw sleeps in the retry/fault paths (nadlint, scripts/nadlint/,
/// rule `no-sleep`): code that wants to pause must wait on a CondVar
/// against a deadline derived from a Clock, never block the thread with a
/// wall-clock sleep it cannot be woken from.
///
/// Ownership: Clock instances are never owned by the components that use
/// them — callers keep the clock alive for the component's lifetime.
/// Clock::Real() returns a process-wide singleton.
#pragma once

#include <atomic>
#include <chrono>

namespace nadreg {

/// Monotonic time source. Implementations must be thread-safe.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Current monotonic time.
  virtual std::chrono::steady_clock::time_point Now() const = 0;

  /// The process-wide real clock (steady_clock passthrough).
  static Clock* Real();
};

/// Deterministic clock for tests: time only moves when advanced. Safe to
/// advance from one thread while another reads Now().
class ManualClock : public Clock {
 public:
  explicit ManualClock(std::chrono::steady_clock::time_point start =
                           std::chrono::steady_clock::time_point{})
      : now_us_(std::chrono::duration_cast<std::chrono::microseconds>(
                    start.time_since_epoch())
                    .count()) {}

  std::chrono::steady_clock::time_point Now() const override {
    return std::chrono::steady_clock::time_point{
        std::chrono::microseconds(now_us_.load(std::memory_order_relaxed))};
  }

  void Advance(std::chrono::microseconds d) {
    now_us_.fetch_add(d.count(), std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> now_us_;
};

inline Clock* Clock::Real() {
  class RealClock final : public Clock {
   public:
    std::chrono::steady_clock::time_point Now() const override {
      return std::chrono::steady_clock::now();
    }
  };
  static RealClock clock;
  return &clock;
}

}  // namespace nadreg
