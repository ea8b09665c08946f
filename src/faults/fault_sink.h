/// \file
/// The unified fault-injection interface every disk substrate implements.
///
/// The paper's subject is *fail-prone* base registers (Section 2): blocks
/// that crash (unresponsive mode), answer slowly, or sit behind a network
/// that delays, drops or severs connections. Before this interface each
/// backend grew its own ad-hoc crash entry points (SimFarm::CrashDisk,
/// NadServer::CrashDisk, ...); FaultSink unifies them so one FaultPlan
/// (fault_plan.h) driven by one FaultInjector (injector.h) can target the
/// randomized simulation, the adversary-controlled farm, or a cluster of
/// real TCP disk daemons interchangeably.
///
/// The two crash faults are the paper's model and every sink must
/// implement them. The transport faults (delay / drop / disconnect /
/// stall / heal) only make sense for substrates with a wire; they default
/// to no-ops so purely simulated farms remain valid sinks.
///
/// Ownership/threading contract: sinks outlive any FaultInjector driving
/// them, and every method must be safe to call from the injector's
/// scheduling thread while the substrate serves operations concurrently.
#pragma once

#include <chrono>
#include <cstdint>

#include "common/types.h"

namespace nadreg::faults {

/// Farm-level fault target. DiskId arguments address the disk within the
/// farm; a sink representing a single disk daemon may ignore them.
class FaultSink {
 public:
  virtual ~FaultSink() = default;

  /// Crashes one register: it stops responding to all operations, forever
  /// (the paper's unresponsive failure mode, Jayanti–Chandra–Toueg).
  virtual void CrashRegister(const RegisterId& r) = 0;

  /// Crashes a whole disk: all (infinitely many) registers of the disk
  /// stop responding, forever.
  virtual void CrashDisk(DiskId d) = 0;

  /// Sets the per-request service delay range for a disk (a slow disk —
  /// indistinguishable from a crashed one for any finite observation).
  virtual void DelayDisk(DiskId d, std::uint64_t min_us,
                         std::uint64_t max_us) {
    (void)d;
    (void)min_us;
    (void)max_us;
  }

  /// Drops each incoming request with probability permille/1000 (lossy
  /// link / flaky controller). Dropped requests are swallowed silently,
  /// like a crash that only afflicts some operations.
  virtual void DropRequests(DiskId d, std::uint32_t permille) {
    (void)d;
    (void)permille;
  }

  /// Severs every currently-established connection to the disk. Unlike a
  /// crash this is *recoverable*: the disk keeps listening and a client
  /// with reconnect support resumes (nad::NadClient's retry path).
  virtual void DisconnectDisk(DiskId d) { (void)d; }

  /// Stalls the disk completely for `d` — requests are held, not dropped,
  /// and served once the stall elapses (a long GC pause / controller
  /// brown-out).
  virtual void StallDisk(DiskId d, std::chrono::milliseconds dur) {
    (void)d;
    (void)dur;
  }

  /// Clears every *recoverable* fault (delay, drop, stall, partition) on
  /// the disk. Crashes are permanent by the model and are not healed.
  virtual void Heal(DiskId d) { (void)d; }
};

}  // namespace nadreg::faults
