/// \file
/// Hashed timer wheel for the event loops of the client and the server
/// (DESIGN.md §12).
///
/// Each event loop owns one wheel and is its only caller — the wheel has
/// no locks by design (single-writer loop ownership). On the client,
/// per-connection expiry sweeps and backoff redial timers are wheel
/// entries; on the server, a burst held by an injected stall or delay is
/// one. All fire from the loop's epoll_wait cadence.
///
/// Deadlines hash into a fixed ring of tick-wide slots (classic hashed
/// wheel: entries due in a later revolution share a slot and are skipped
/// until their tick comes around). `Advance(now)` walks the cursor up to
/// `now`, firing every entry whose tick has been reached, in deadline
/// order across ticks and insertion order within one. Deadlines round
/// *up* to a tick boundary, so a callback never fires before its
/// deadline; it can fire up to one tick (default 1ms) late, which is well
/// inside the expiry/backoff granularity the client needs and the fault
/// delays the server injects.
///
/// Callbacks may Schedule and Cancel freely (a same-instant reschedule
/// lands on the next tick); they must not re-enter Advance.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <set>
#include <unordered_map>
#include <vector>

namespace nadreg::nad {

class TimerWheel {
 public:
  using Clock = std::chrono::steady_clock;
  using Callback = std::function<void()>;

  explicit TimerWheel(Clock::time_point origin,
                      std::chrono::microseconds tick =
                          std::chrono::microseconds(1000),
                      std::size_t slots = 256);

  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  /// Arms `cb` to fire at the first Advance(now) with now >= deadline.
  /// Returns a nonzero id usable with Cancel.
  std::uint64_t Schedule(Clock::time_point deadline, Callback cb);

  /// Disarms a pending timer. False if it already fired or was cancelled.
  bool Cancel(std::uint64_t id);

  /// Fires everything due at or before `now`; returns how many fired.
  std::size_t Advance(Clock::time_point now);

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  /// Earliest instant any pending timer can fire (the epoll_wait timeout
  /// bound); Clock::time_point::max() when the wheel is empty.
  Clock::time_point NextDeadline() const;

 private:
  struct Entry {
    std::uint64_t id = 0;
    std::uint64_t due = 0;  // absolute tick index
    Callback cb;
  };

  std::uint64_t TickFloor(Clock::time_point t) const;
  std::uint64_t TickCeil(Clock::time_point t) const;

  const Clock::time_point origin_;
  const std::chrono::microseconds tick_;
  std::vector<std::vector<Entry>> slots_;
  /// Due tick of every live entry — O(log n) earliest-deadline queries
  /// for the loop's wait timeout. Multiset because ticks collide.
  std::multiset<std::uint64_t> due_index_;
  /// id -> due tick, so Cancel can find the slot without a full scan.
  std::unordered_map<std::uint64_t, std::uint64_t> ids_;
  std::uint64_t cursor_ = 0;  // first tick not yet fired
  std::uint64_t next_id_ = 1;
  std::size_t live_ = 0;
};

}  // namespace nadreg::nad
