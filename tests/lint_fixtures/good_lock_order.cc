// lint-path: src/sim/good_lock_order.cc
// Known-good twin of bad_lock_order.cc: every nested acquisition here
// follows the DESIGN.md §12 hierarchy (rank strictly increasing inward:
// loop inbox_mu_ 1 -> farm mu_ 2 -> Registry mu_ 3), or releases one
// guard before taking the next, or involves an ad-hoc lock outside the
// hierarchy which the rule deliberately ignores. Zero lint-expect
// lines: the fixture self-test fails if the linter flags anything.
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
  // Legal nesting: each inner lock has a strictly later rank.
  void GoodDescending(EventLoop& loop, Registry& metrics) {
    MutexLock inbox(loop.inbox_mu_);
    MutexLock farm(mu_);
    MutexLock names(metrics.mu_);
  }

  // Sequential, not nested: the farm guard dies before the inbox guard
  // exists, then the other farm's lock is taken fresh.
  void GoodSequential(EventLoop& loop, SimFarm& other) {
    {
      MutexLock farm(mu_);
    }
    {
      MutexLock inbox(loop.inbox_mu_);
    }
    MutexLock theirs(other.mu_);
  }

  // A waiter mutex outside the §12 hierarchy has no rank; nesting it
  // under a ranked lock is not an inversion.
  void GoodAdHoc() {
    MutexLock farm(mu_);
    MutexLock waiter(waiter_mu_);
  }

 private:
  Mutex mu_;
  Mutex waiter_mu_;
};

}  // namespace nadreg::sim
