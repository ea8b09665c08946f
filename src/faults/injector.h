/// \file
/// FaultInjector: replays a FaultPlan against a FaultSink.
///
/// Two replay modes, matching the repo's two kinds of executions:
///
///   * Real time — Start() launches a scheduling thread that fires each
///     event when its offset from Start() elapses (steady_clock, CondVar
///     deadline waits — no raw sleeps, so Stop() interrupts immediately).
///     Used by the chaos harness against live farms and TCP clusters.
///   * Deterministic — no thread; the test calls ApplyThrough(elapsed)
///     and every event with `at <= elapsed` fires synchronously on the
///     caller's thread, in schedule order. Used with ManualClock-style
///     tests where wall time must not matter.
///
/// Every fired event increments the `faults.injected` counter plus a
/// per-kind `faults.injected.<kind>` counter in the obs registry, so a
/// chaos run's BENCH artifact records exactly which adversary actions the
/// histories survived.
///
/// Ownership/threading: the injector borrows the sink (caller keeps it
/// alive; see fault_sink.h) and the registry. All public methods are
/// thread-safe; sink methods are invoked with no injector lock held, so
/// sinks may call back into anything except the injector itself.
#pragma once

#include <chrono>
#include <cstddef>
#include <thread>

#include "common/sync.h"
#include "faults/fault_plan.h"
#include "faults/fault_sink.h"
#include "obs/metrics.h"

namespace nadreg::faults {

/// Replays a FaultPlan's events, in schedule order, exactly once each.
class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, FaultSink& sink,
                obs::Registry* registry = &obs::Registry::Global());
  ~FaultInjector();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Starts real-time replay: event times are offsets from this call.
  /// Call at most once, and not after ApplyThrough.
  void Start();

  /// Stops the replay thread (if any) without firing further events.
  /// Idempotent; also called by the destructor.
  void Stop();

  /// Deterministic replay: fires every not-yet-fired event with
  /// `at <= elapsed` on the calling thread. Monotonic: callers pass
  /// nondecreasing elapsed values. Must not race with Start().
  void ApplyThrough(std::chrono::microseconds elapsed);

  /// Number of events fired so far.
  std::size_t injected_count() const;

  /// True once every event in the plan has fired.
  bool done() const;

  const FaultPlan& plan() const { return plan_; }

 private:
  void ThreadMain(std::stop_token stop);
  void Apply(const FaultEvent& ev);  // fires one event, no lock held

  const FaultPlan plan_;
  FaultSink& sink_;
  obs::Counter& injected_total_;
  // Set in the ctor, read-only after; the Registry locks itself (§12
  // rank 3).
  // lint-allow(tsa-coverage): set once in the ctor
  obs::Registry* registry_;

  mutable Mutex mu_;
  CondVar cv_;
  std::size_t next_ GUARDED_BY(mu_) = 0;  // first event not yet fired
  bool stopped_ GUARDED_BY(mu_) = false;
  // set by Start(), joined by Stop()/dtor
  // lint-allow(tsa-coverage): lifecycle-serialized (Start/Stop contract)
  std::jthread thread_;
};

}  // namespace nadreg::faults
