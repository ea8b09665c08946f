#include "sim/sim_farm.h"

#include <utility>

namespace nadreg::sim {

SimFarm::SimFarm(Options opts)
    : rng_(opts.seed),
      opts_(opts),
      service_([this](std::stop_token st) { ServiceLoop(st); }) {}

SimFarm::~SimFarm() {
  {
    // The stop flag participates in the service thread's CV predicates;
    // setting it under the lock ensures the thread either sees it before
    // sleeping or is woken by the notify below (no lost wakeup).
    MutexLock lock(mu_);
    service_.request_stop();
  }
  cv_.NotifyAll();
}

void SimFarm::Enqueue(Event ev) {
  {
    MutexLock lock(mu_);
    // Every accepted operation counts as issued, including one that a
    // crash or a lossy link swallows.
    if (ev.is_write) {
      ++stats_.writes_issued;
    } else {
      ++stats_.reads_issued;
    }
    // Unresponsive register: the operation is never serviced.
    if (store_.IsCrashed(ev.r)) return;
    if (auto it = drop_permille_.find(ev.r.disk);
        it != drop_permille_.end() && rng_.Chance(it->second, 1000)) {
      // Lossy link: swallowed like a crash would swallow it, but unlike a
      // crash this heals.
      return;
    }
    std::uint64_t min_us = opts_.min_delay_us;
    std::uint64_t max_us = opts_.max_delay_us;
    if (auto it = delay_override_.find(ev.r.disk);
        it != delay_override_.end()) {
      min_us = it->second.first;
      max_us = it->second.second;
    }
    const auto delay = std::chrono::microseconds(rng_.Between(min_us, max_us));
    ev.due = std::chrono::steady_clock::now() + delay;
    ev.seq = next_seq_++;
    ++in_flight_;
    queue_.push(std::move(ev));
  }
  cv_.NotifyAll();
}

void SimFarm::IssueRead(ProcessId p, RegisterId r, ReadHandler done) {
  Event ev;
  ev.p = p;
  ev.r = r;
  ev.is_write = false;
  ev.on_read = std::move(done);
  Enqueue(std::move(ev));
}

void SimFarm::IssueWrite(ProcessId p, RegisterId r, Value v,
                         WriteHandler done) {
  Event ev;
  ev.p = p;
  ev.r = r;
  ev.is_write = true;
  ev.value = std::move(v);
  ev.on_write = std::move(done);
  Enqueue(std::move(ev));
}

void SimFarm::IssueRmw(ProcessId p, RegisterId r, RmwFunction fn,
                       RmwHandler done) {
  Event ev;
  ev.p = p;
  ev.r = r;
  ev.is_write = true;  // an RMW mutates the block
  ev.rmw = std::move(fn);
  ev.on_rmw = std::move(done);
  Enqueue(std::move(ev));
}

void SimFarm::CrashRegister(const RegisterId& r) {
  MutexLock lock(mu_);
  store_.CrashRegister(r);
}

void SimFarm::CrashDisk(DiskId d) {
  MutexLock lock(mu_);
  store_.CrashDisk(d);
}

void SimFarm::DelayDisk(DiskId d, std::uint64_t min_us, std::uint64_t max_us) {
  MutexLock lock(mu_);
  delay_override_[d] = {min_us, max_us};
}

void SimFarm::DropRequests(DiskId d, std::uint32_t permille) {
  MutexLock lock(mu_);
  if (permille == 0) {
    drop_permille_.erase(d);
  } else {
    drop_permille_[d] = permille;
  }
}

void SimFarm::Heal(DiskId d) {
  MutexLock lock(mu_);
  delay_override_.erase(d);
  drop_permille_.erase(d);
}

OpStats SimFarm::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

std::size_t SimFarm::InFlight() const {
  MutexLock lock(mu_);
  return in_flight_;
}

Value SimFarm::Peek(const RegisterId& r) const {
  MutexLock lock(mu_);
  return store_.Get(r);
}

void SimFarm::ServiceLoop(std::stop_token stop) {
  mu_.Lock();
  while (!stop.stop_requested()) {
    if (queue_.empty()) {
      cv_.Wait(mu_, [&] {
        mu_.AssertHeld();  // CondVar::Wait runs predicates under the lock
        return stop.stop_requested() || !queue_.empty();
      });
      continue;
    }
    const auto now = std::chrono::steady_clock::now();
    // Copy the deadline: wait_until holds its time_point argument by
    // reference and re-reads it after every wake-up, while concurrent
    // Enqueue() calls may reallocate the queue's storage underneath it.
    const auto deadline = queue_.top().due;
    if (deadline > now) {
      cv_.WaitUntil(mu_, deadline, [&] {
        mu_.AssertHeld();
        return stop.stop_requested() ||
               (!queue_.empty() &&
                queue_.top().due <= std::chrono::steady_clock::now());
      });
      continue;
    }
    Event ev = queue_.top();
    queue_.pop();
    --in_flight_;
    if (store_.IsCrashed(ev.r)) {
      // Crashed while queued: the operation never responds. Its effect is
      // lost together with the register.
      continue;
    }
    Value read_result;
    if (ev.rmw) {
      // RMW linearization point: store fn(previous), respond with
      // previous. fn is a pure value transform (rmw_client.h), so running
      // it under mu_ is safe.
      read_result = store_.Get(ev.r);
      store_.Apply(ev.r, ev.rmw(read_result));
      ++stats_.writes_completed;
    } else if (ev.is_write) {
      store_.Apply(ev.r, std::move(ev.value));  // linearization point
      ++stats_.writes_completed;
    } else {
      read_result = store_.Get(ev.r);  // linearization point
      ++stats_.reads_completed;
    }
    // Run the handler without holding the lock: it may issue further
    // base-register operations (e.g. the reader write-back in Section 6).
    mu_.Unlock();
    if (ev.rmw) {
      if (ev.on_rmw) ev.on_rmw(std::move(read_result));
    } else if (ev.is_write) {
      if (ev.on_write) ev.on_write();
    } else {
      if (ev.on_read) ev.on_read(std::move(read_result));
    }
    mu_.Lock();
  }
  mu_.Unlock();
}

}  // namespace nadreg::sim
