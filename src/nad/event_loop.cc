#include "nad/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/log.h"

namespace nadreg::nad {
namespace {

std::uint32_t TranslateEvents(std::uint32_t ep) {
  std::uint32_t out = 0;
  if (ep & (EPOLLIN | EPOLLRDHUP)) out |= EventLoop::kReadable;
  if (ep & EPOLLRDHUP) out |= EventLoop::kPeerClosed;
  if (ep & EPOLLOUT) out |= EventLoop::kWritable;
  if (ep & (EPOLLERR | EPOLLHUP)) out |= EventLoop::kError;
  return out;
}

}  // namespace

Expected<std::unique_ptr<EventLoop>> EventLoop::Create() {
  const int epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) {
    return Status::Unavailable(std::string("epoll_create1: ") +
                               std::strerror(errno));
  }
  const int wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd < 0) {
    const int err = errno;
    ::close(epoll_fd);
    return Status::Unavailable(std::string("eventfd: ") + std::strerror(err));
  }
  std::unique_ptr<EventLoop> loop(new EventLoop(epoll_fd, wake_fd));
  epoll_event ev{};
  ev.events = EPOLLIN;  // level-triggered: a pending wake stays visible
  ev.data.ptr = nullptr;  // sentinel: the wakeup fd
  if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, wake_fd, &ev) != 0) {
    return Status::Unavailable(std::string("epoll_ctl(wakefd): ") +
                               std::strerror(errno));
  }
  return loop;
}

EventLoop::EventLoop(int epoll_fd, int wake_fd)
    : epoll_fd_(epoll_fd),
      wake_fd_(wake_fd),
      wheel_(TimerWheel::Clock::now()) {}

EventLoop::~EventLoop() {
  Stop();
  Join();
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EventLoop::Start() {
  thread_ = std::jthread([this](std::stop_token stop) { Run(stop); });
}

void EventLoop::Stop() {
  stop_.store(true, std::memory_order_release);
  WakeUp();
}

void EventLoop::Join() {
  if (thread_.joinable()) thread_.join();
  MarkExited();  // also covers a loop that was never started
}

void EventLoop::MarkExited() {
  {
    MutexLock lock(inbox_mu_);
    exited_ = true;
  }
  ran_cv_.NotifyAll();
}

void EventLoop::Post(Task task) {
  {
    MutexLock lock(inbox_mu_);
    inbox_.push_back(std::move(task));
  }
  // A task posted from the loop thread itself (a completion handler
  // re-issuing ops — every iteration of a closed-loop workload) needs no
  // eventfd wake: the loop re-checks the inbox before it can sleep
  // (Run's pre-wait peek), so the write+read syscall pair would be pure
  // overhead. Cross-thread posts still wake as before.
  if (!OnLoopThread()) WakeUp();
}

bool EventLoop::RunAndWait(const Task& task) {
  if (OnLoopThread()) {
    task();
    return true;
  }
  bool ran = false;
  MutexLock lock(inbox_mu_);
  if (exited_) return false;
  // The wrapper runs on the loop thread before Run can exit, so `task`
  // and `ran` outlive it; a wrapper left in the inbox at exit is
  // destroyed unrun.
  inbox_.push_back([this, &task, &ran] {
    task();
    MutexLock done(inbox_mu_);
    ran = true;
    ran_cv_.NotifyAll();
  });
  WakeUp();
  ran_cv_.Wait(inbox_mu_, [&] {
    inbox_mu_.AssertHeld();
    return ran || exited_;
  });
  return ran;
}

void EventLoop::WakeUp() {
  if (wake_fd_ < 0) return;
  const std::uint64_t one = 1;
  // A full eventfd counter (impossible at 2^64-1 wakes) or EINTR just
  // means a wake is already pending — nothing to handle.
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

Status EventLoop::Watch(int fd, IoWatcher* watcher) {
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
  ev.data.ptr = watcher;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    return Status::Unavailable(std::string("epoll_ctl(add): ") +
                               std::strerror(errno));
  }
  return Status::Ok();
}

void EventLoop::Unwatch(int fd) {
  // Failure (e.g. fd already closed) is harmless: a closed fd leaves the
  // interest list on its own.
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

void EventLoop::Run(std::stop_token stop) {
  loop_tid_.store(std::this_thread::get_id());
  std::array<epoll_event, 64> events;
  std::vector<Task> tasks;
  while (!stop_.load(std::memory_order_acquire) && !stop.stop_requested()) {
    int timeout_ms = -1;
    // Pre-wait inbox peek: tasks posted from this very thread skip the
    // eventfd wake (see Post), so the loop must never sleep while the
    // inbox is non-empty — poll instead and drain them this iteration.
    {
      MutexLock lock(inbox_mu_);
      if (!inbox_.empty()) timeout_ms = 0;
    }
    const auto next = wheel_.NextDeadline();
    if (timeout_ms != 0 && next != TimerWheel::Clock::time_point::max()) {
      const auto now = TimerWheel::Clock::now();
      if (next <= now) {
        timeout_ms = 0;
      } else {
        const auto wait = std::chrono::ceil<std::chrono::milliseconds>(
            next - now);
        timeout_ms = static_cast<int>(
            std::min<std::chrono::milliseconds::rep>(wait.count(), 60'000));
      }
    }
    const int n =
        ::epoll_wait(epoll_fd_, events.data(), events.size(), timeout_ms);
    if (n < 0 && errno != EINTR) {
      LOG_WARN << "event loop: epoll_wait: " << std::strerror(errno)
               << "; loop dying, failing over its connections";
      Die(&tasks);
      break;
    }
    // Drain the wake counter BEFORE swapping the inbox. A Post() that
    // lands after this read leaves the counter non-zero, so even though
    // the swap below already picks its task up, the level-triggered wake
    // fd forces the next epoll_wait to return (a harmless spurious wake).
    // Draining after the swap loses that wake: a Post between swap and
    // drain would leave its task queued with the signal consumed, and an
    // empty timer wheel would then sleep on it forever.
    for (int i = 0; i < n; ++i) {
      if (events[i].data.ptr == nullptr) {
        std::uint64_t drained = 0;
        [[maybe_unused]] ssize_t r =
            ::read(wake_fd_, &drained, sizeof drained);
        break;  // the wake fd appears at most once per epoll batch
      }
    }
    // Inbox next: connection registrations and Submit admissions posted
    // before this wake must precede the io they enable.
    {
      MutexLock lock(inbox_mu_);
      tasks.swap(inbox_);
    }
    for (Task& t : tasks) t();
    tasks.clear();
    for (int i = 0; i < n; ++i) {
      if (events[i].data.ptr == nullptr) continue;
      if (stop_.load(std::memory_order_acquire)) break;
      static_cast<IoWatcher*>(events[i].data.ptr)
          ->OnIoReady(TranslateEvents(events[i].events));
    }
    wheel_.Advance(TimerWheel::Clock::now());
  }
  MarkExited();
}

void EventLoop::Die(std::vector<Task>* tasks) {
  // Publish death before the handler runs so a concurrent Post caller
  // checking dead() cannot observe a live loop after the fail-over.
  dead_.store(true, std::memory_order_release);
  if (fatal_handler_) fatal_handler_();
  // One final inbox drain: admissions posted before death was published
  // now run against the state the fatal handler marked dead (the client
  // fails them) instead of sitting in a queue no thread will ever serve.
  {
    MutexLock lock(inbox_mu_);
    tasks->swap(inbox_);
  }
  for (Task& t : *tasks) t();
  tasks->clear();
}

void EventLoop::SetFatalHandler(Task handler) {
  fatal_handler_ = std::move(handler);
}

}  // namespace nadreg::nad
