/// \file
/// Annotated synchronization primitives: the only mutex/condvar types the
/// repo uses outside this directory (enforced by nadlint, scripts/nadlint/).
///
/// nadreg::Mutex, MutexLock and CondVar are thin wrappers over the std
/// primitives carrying Clang Thread Safety Analysis attributes (see
/// common/thread_annotations.h), so the locking discipline — which fields
/// a mutex guards, which functions require it, the stripe→journal lock
/// order — is machine-checked by a Clang build with
/// -DNADREG_THREAD_SAFETY=ON instead of living in comments and TSan runs.
///
/// The wrappers add no state and no behaviour: Mutex is exactly
/// std::mutex, MutexLock is exactly std::lock_guard, CondVar waits are
/// exactly std::condition_variable waits against the wrapped mutex.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace nadreg {

/// Annotated std::mutex. Use MutexLock for scoped acquisition; call
/// Lock()/Unlock() directly only where a scope cannot express the
/// critical section (e.g. a service loop that drops the lock to run a
/// completion handler).
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// Tells the analysis (not the runtime) that this thread holds the
  /// mutex — for callbacks invoked from a locked context it cannot see.
  void AssertHeld() const ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// Scoped acquisition (std::lock_guard with annotations).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable waiting on a nadreg::Mutex. Every wait requires the
/// mutex held on entry and holds it again on return, which is what the
/// REQUIRES annotation promises to the analysis.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

  void Wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller still owns the mutex
  }

  template <typename Pred>
  void Wait(Mutex& mu, Pred pred) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock, std::move(pred));
    lock.release();
  }

  /// Plain timed wait: returns false when the deadline passed before a
  /// notification arrived (spurious wake-ups also return true — callers
  /// re-check their predicate in a loop, as BlockedQuorumWait does).
  template <typename Clock, typename Duration>
  bool WaitUntil(Mutex& mu,
                 const std::chrono::time_point<Clock, Duration>& deadline)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    const bool ok = cv_.wait_until(lock, deadline) == std::cv_status::no_timeout;
    lock.release();
    return ok;
  }

  /// Returns pred() at wake-up (false = timed out with pred still false).
  template <typename Clock, typename Duration, typename Pred>
  bool WaitUntil(Mutex& mu,
                 const std::chrono::time_point<Clock, Duration>& deadline,
                 Pred pred) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    const bool ok = cv_.wait_until(lock, deadline, std::move(pred));
    lock.release();
    return ok;
  }

  template <typename Rep, typename Period, typename Pred>
  bool WaitFor(Mutex& mu, const std::chrono::duration<Rep, Period>& timeout,
               Pred pred) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    const bool ok = cv_.wait_for(lock, timeout, std::move(pred));
    lock.release();
    return ok;
  }

 private:
  std::condition_variable cv_;
};

}  // namespace nadreg
