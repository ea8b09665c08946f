/// \file
/// Single-threaded epoll event loop: the one io core of the client and
/// the server.
///
/// Each NadClient owns N loops (Options::num_event_loops) and each
/// NadServer owns one. A loop is the *only* thread that touches the
/// sockets, queues, timers and other state of the connections it hosts —
/// the single-writer rule (DESIGN.md §12). The cross-thread entry points
/// are Post() and its blocking twin RunAndWait(): an eventfd-woken FIFO
/// inbox guarded by the loop's only mutex.
///
/// Sockets register edge-triggered (EPOLLET), so watchers must drain
/// reads to EAGAIN and write until EAGAIN before relying on the next
/// readiness edge. A read shorter than its buffer also shows the socket
/// was emptied — new bytes raise a new edge — unless kPeerClosed was
/// reported: then no edge follows, and reads go on to the close. Timers
/// live on a per-loop TimerWheel advanced every iteration; the
/// epoll_wait timeout is bounded by the wheel's earliest deadline (and
/// is infinite when both the wheel and inbox are idle).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "nad/timer_wheel.h"

namespace nadreg::nad {

class EventLoop {
 public:
  /// Readiness bits passed to IoWatcher::OnIoReady — a deliberately tiny
  /// abstraction over the epoll event mask so connection code does not
  /// include <sys/epoll.h>.
  static constexpr std::uint32_t kReadable = 1u << 0;
  static constexpr std::uint32_t kWritable = 1u << 1;
  /// Error/hangup on the fd; the watcher should tear the link down.
  static constexpr std::uint32_t kError = 1u << 2;
  /// The peer shut its sending side (comes with kReadable): reads drain
  /// what it sent, then report the close.
  static constexpr std::uint32_t kPeerClosed = 1u << 3;

  /// A registered fd's owner. OnIoReady always runs on the loop thread.
  class IoWatcher {
   public:
    virtual ~IoWatcher() = default;
    virtual void OnIoReady(std::uint32_t events) = 0;
  };

  using Task = std::function<void()>;

  /// kUnavailable if the epoll or wakeup fd cannot be created.
  static Expected<std::unique_ptr<EventLoop>> Create();

  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Spawns the loop thread. Call exactly once.
  void Start();
  /// Signals the loop to exit after the current iteration (idempotent).
  void Stop();
  /// Joins the loop thread. Call after Stop; no tasks run afterwards.
  void Join();

  /// Enqueues `task` to run on the loop thread, FIFO. Thread-safe; the
  /// only cross-thread entry point. Tasks posted after Stop may never
  /// run. A Post from the loop thread itself skips the eventfd wake
  /// entirely (the loop re-checks its inbox before sleeping), so
  /// handler-driven re-submission costs no syscalls.
  void Post(Task task);

  /// Runs `task` on the loop thread and returns once it has run — the
  /// blocking form of Post, for calls that must have taken effect when
  /// they return. Runs `task` inline when called on the loop thread.
  /// Returns false, without running it, once the loop has exited.
  bool RunAndWait(const Task& task);

  /// Installs a handler that runs on the loop thread if the loop dies of
  /// an unrecoverable error (a non-EINTR epoll_wait failure). It fires
  /// after dead() starts returning true and before one final inbox
  /// drain, so the owner can mark its connections dead and already-
  /// posted tasks land on that marked state instead of hanging. Call
  /// before Start; at most once.
  void SetFatalHandler(Task handler);

  /// True once the loop has died of an unrecoverable error. Tasks posted
  /// to a dead loop never run; check before Post when a silent drop
  /// would leak state. Never set by a normal Stop.
  bool dead() const { return dead_.load(std::memory_order_acquire); }

  /// Registers `fd` edge-triggered for read+write readiness. Loop-thread
  /// only (Post a task to get there).
  Status Watch(int fd, IoWatcher* watcher);
  /// Unregisters `fd`. Loop-thread only; safe to call for an fd that is
  /// about to close.
  void Unwatch(int fd);

  /// The loop's timer wheel. Loop-thread only.
  TimerWheel& timers() { return wheel_; }

  bool OnLoopThread() const {
    return std::this_thread::get_id() == loop_tid_.load();
  }

 private:
  EventLoop(int epoll_fd, int wake_fd);
  void Run(std::stop_token stop);
  void WakeUp();
  /// Unrecoverable loop failure: publishes dead(), runs the fatal
  /// handler, then drains the inbox one last time (`tasks` is scratch).
  void Die(std::vector<Task>* tasks);
  /// Publishes that no task will run any more and wakes RunAndWait.
  void MarkExited();

  // Both fds are opened before the loop thread starts and closed in the
  // destructor after it joins; in between they are read-only values.
  // lint-allow(tsa-coverage): set before the loop thread starts
  int epoll_fd_ = -1;
  // lint-allow(tsa-coverage): set before the loop thread starts
  int wake_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::atomic<bool> dead_{false};
  // SetFatalHandler documents "call before Start; at most once".
  // lint-allow(tsa-coverage): set before Start per the API contract
  Task fatal_handler_;
  std::atomic<std::thread::id> loop_tid_{};

  Mutex inbox_mu_;
  std::vector<Task> inbox_ GUARDED_BY(inbox_mu_);
  /// Set once Run has returned (or Join found no thread): RunAndWait
  /// callers stop waiting for tasks that will never run.
  bool exited_ GUARDED_BY(inbox_mu_) = false;
  CondVar ran_cv_;  // RunAndWait: a task ran, or the loop exited

  // timers() contract: loop-thread only.
  // lint-allow(tsa-coverage): loop-thread confined
  TimerWheel wheel_;
  // last member: joins before the rest tears down
  // lint-allow(tsa-coverage): set in Start, joined in the dtor
  std::jthread thread_;
};

}  // namespace nadreg::nad
