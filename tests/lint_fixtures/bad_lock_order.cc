// lint-path: src/sim/bad_lock_order.cc
// Known-bad fixture: nested scoped MutexLock acquisitions that invert
// the DESIGN.md §12 hierarchy (machine-readable form:
// scripts/nadlint/lock_order.json). The hierarchy orders an EventLoop's
// inbox_mu_ (rank 1) before a farm's mu_ (rank 2) before the metrics
// Registry's mu_ (rank 3); acquiring a lock of equal or earlier rank
// while holding a later one is the deadlock shape TSA cannot see (and
// GCC builds compile the annotations away entirely). Never compiled; the
// linter self-test asserts every lint-expect line below is flagged.
#include "common/sync.h"

namespace nadreg::sim {

class EventLoop {
 public:
  Mutex inbox_mu_;
};

class Registry {
 public:
  Mutex mu_;
};

class SimFarm {
 public:
  // Inversion: the metrics registry (rank 3) held while taking the farm
  // lock (rank 2).
  void BadMetricsFirst(Registry& metrics) {
    MutexLock names(metrics.mu_);
    MutexLock farm(mu_);  // lint-expect(lock-order)
  }

  // Inversion: the farm lock (rank 2) held while pushing into a loop's
  // inbox (rank 1); a loop task that takes the farm lock deadlocks it.
  void BadPostUnderFarmLock(EventLoop& loop) {
    MutexLock farm(mu_);
    MutexLock inbox(loop.inbox_mu_);  // lint-expect(lock-order)
  }

  // Same-rank nesting: two farms' locks under scoped guards; two
  // threads nesting them in opposite orders deadlock.
  void BadTwoFarms(SimFarm& other) {
    MutexLock mine(mu_);
    MutexLock theirs(other.mu_);  // lint-expect(lock-order)
  }

 private:
  Mutex mu_;
};

}  // namespace nadreg::sim
