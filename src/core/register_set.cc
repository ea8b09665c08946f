#include "core/register_set.h"

#include <atomic>
#include <cassert>

#include "common/quorum_wait.h"
#include "common/sync.h"
#include "obs/metrics.h"

namespace nadreg::core {

struct RegisterSet::Ticket::State {
  mutable Mutex mu;
  CondVar cv;
  std::size_t completed GUARDED_BY(mu) = 0;
  // One slot per register index; set when that register's op completes.
  std::vector<std::optional<Value>> results GUARDED_BY(mu);

  explicit State(std::size_t n) : results(n) {}
};

std::size_t RegisterSet::Ticket::Completed() const {
  MutexLock lock(state_->mu);
  return state_->completed;
}

std::vector<std::pair<std::size_t, Value>> RegisterSet::Ticket::Results()
    const {
  MutexLock lock(state_->mu);
  std::vector<std::pair<std::size_t, Value>> out;
  out.reserve(state_->completed);
  for (std::size_t i = 0; i < state_->results.size(); ++i) {
    if (state_->results[i]) out.emplace_back(i, *state_->results[i]);
  }
  return out;
}

struct RegisterSet::Shared : std::enable_shared_from_this<RegisterSet::Shared> {
  struct QueuedOp {
    bool is_write = false;
    bool is_merge = false;  // implies is_write; value holds the delta
    Value value;            // writes and merges only
    // Tickets to notify on completion. Reads may have several (coalesced).
    std::vector<std::shared_ptr<Ticket::State>> subscribers;
  };
  struct Slot {
    bool busy = false;
    std::deque<QueuedOp> queue;
  };

  // Filled in by RegisterSet's ctor before the Shared ptr is handed to
  // any completion handler; read-only from then on.
  // lint-allow(tsa-coverage): set pre-publication
  BaseRegisterClient* client = nullptr;
  // lint-allow(tsa-coverage): set pre-publication
  ProcessId self = kNoProcess;
  // lint-allow(tsa-coverage): set pre-publication
  std::vector<RegisterId> regs;
  Mutex mu;
  std::vector<Slot> slots GUARDED_BY(mu);

  // Quorum/pending accounting. Atomics: bumped from Await (no mu) and
  // from the queue paths (under mu) alike.
  std::atomic<std::uint64_t> quorum_waits{0};
  std::atomic<std::uint64_t> quorum_wait_us{0};
  std::atomic<std::uint64_t> pending_queued{0};
  std::atomic<std::uint64_t> max_pending_depth{0};

  // Process-global instruments (resolved once; recording is lock-free).
  // lint-allow(tsa-coverage): resolved once at init
  obs::Histogram* g_wait_hist =
      &obs::Registry::Global().GetHistogram("core.quorum_wait_us");
  // lint-allow(tsa-coverage): resolved once at init
  obs::Gauge* g_pending_depth =
      &obs::Registry::Global().GetGauge("core.pending_depth");
  // lint-allow(tsa-coverage): resolved once at init
  obs::Counter* g_skipped_suspected =
      &obs::Registry::Global().GetCounter("core.skipped_suspected");

  void NoteQueued(std::size_t depth_now) {
    pending_queued.fetch_add(1, std::memory_order_relaxed);
    g_pending_depth->Add(1);
    std::uint64_t seen = max_pending_depth.load(std::memory_order_relaxed);
    while (depth_now > seen && !max_pending_depth.compare_exchange_weak(
                                   seen, depth_now, std::memory_order_relaxed)) {
    }
  }

  // Issues one whole phase (a read or write of every register) with the
  // paper's pending-write discipline per register. All registers whose
  // slot is free are handed to the client in ONE vectored call, so a
  // networked backend sends the phase with one writev per disk;
  // busy slots queue (reads coalescing) and chain from OnComplete.
  void IssuePhase(const std::shared_ptr<Ticket::State>& st, bool is_write,
                  const Value& v) {
    std::vector<std::size_t> to_issue;
    to_issue.reserve(regs.size());
    {
      MutexLock lock(mu);
      for (std::size_t i = 0; i < regs.size(); ++i) {
        Slot& slot = slots[i];
        if (!slot.busy) {
          if (client->IsSuspectedCrashed(regs[i].disk)) {
            // Fail fast on a transport-reported crash (open circuit
            // breaker): issuing would only park the op until expiry, and
            // never issuing gives identical crashed-register semantics —
            // this ticket index simply never completes. The slot stays
            // free, so a later phase probes again once the breaker
            // half-opens and the suspicion clears.
            g_skipped_suspected->Inc();
            continue;
          }
          slot.busy = true;
          to_issue.push_back(i);
          continue;
        }
        // Coalesce a fresh read with a queued (unissued) read: a read that
        // has not been issued yet is as fresh as a new one.
        if (!is_write && !slot.queue.empty() && !slot.queue.back().is_write) {
          slot.queue.back().subscribers.push_back(st);
        } else {
          QueuedOp op;
          op.is_write = is_write;
          if (is_write) op.value = v;
          op.subscribers = {st};
          slot.queue.push_back(std::move(op));
          NoteQueued(slot.queue.size());
        }
      }
    }
    if (to_issue.empty()) return;
    auto self_ptr = shared_from_this();
    if (is_write) {
      std::vector<BaseRegisterClient::WriteOp> ops;
      ops.reserve(to_issue.size());
      for (std::size_t i : to_issue) {
        ops.push_back({regs[i], v, [self_ptr, i, st] {
                         self_ptr->OnComplete(i, {st}, std::nullopt);
                       }});
      }
      client->IssueWrites(self, std::move(ops));
    } else {
      std::vector<BaseRegisterClient::ReadOp> ops;
      ops.reserve(to_issue.size());
      for (std::size_t i : to_issue) {
        ops.push_back({regs[i], [self_ptr, i, st](Value value) {
                         self_ptr->OnComplete(i, {st}, std::move(value));
                       }});
      }
      client->IssueReads(self, std::move(ops));
    }
  }

  // The coded write phase's fan-out: like a write phase, but register i
  // receives its own delta (fragment i), and queued merges never coalesce
  // — every delta must take effect for the cell join to converge.
  void IssueMergePhase(const std::shared_ptr<Ticket::State>& st,
                       std::vector<Value> deltas) {
    std::vector<std::size_t> to_issue;
    to_issue.reserve(regs.size());
    {
      MutexLock lock(mu);
      for (std::size_t i = 0; i < regs.size(); ++i) {
        Slot& slot = slots[i];
        if (!slot.busy) {
          if (client->IsSuspectedCrashed(regs[i].disk)) {
            // Same fail-fast as IssuePhase: see the comment there.
            g_skipped_suspected->Inc();
            continue;
          }
          slot.busy = true;
          to_issue.push_back(i);
          continue;
        }
        QueuedOp op;
        op.is_write = true;
        op.is_merge = true;
        op.value = std::move(deltas[i]);
        op.subscribers = {st};
        slot.queue.push_back(std::move(op));
        NoteQueued(slot.queue.size());
      }
    }
    if (to_issue.empty()) return;
    auto self_ptr = shared_from_this();
    std::vector<BaseRegisterClient::WriteOp> ops;
    ops.reserve(to_issue.size());
    for (std::size_t i : to_issue) {
      ops.push_back({regs[i], std::move(deltas[i]), [self_ptr, i, st] {
                       self_ptr->OnComplete(i, {st}, std::nullopt);
                     }});
    }
    client->IssueMerges(self, std::move(ops));
  }

  void IssueOp(std::size_t i, QueuedOp op) {
    auto self_ptr = shared_from_this();
    if (op.is_merge) {
      auto subs = std::move(op.subscribers);
      client->IssueMerge(self, regs[i], std::move(op.value),
                         [self_ptr, i, subs = std::move(subs)]() {
                           self_ptr->OnComplete(i, subs, std::nullopt);
                         });
    } else if (op.is_write) {
      auto subs = std::move(op.subscribers);
      client->IssueWrite(self, regs[i], std::move(op.value),
                         [self_ptr, i, subs = std::move(subs)]() {
                           self_ptr->OnComplete(i, subs, std::nullopt);
                         });
    } else {
      auto subs = std::move(op.subscribers);
      client->IssueRead(self, regs[i],
                        [self_ptr, i, subs = std::move(subs)](Value v) {
                          self_ptr->OnComplete(i, subs, std::move(v));
                        });
    }
  }

  void OnComplete(std::size_t i,
                  const std::vector<std::shared_ptr<Ticket::State>>& subs,
                  std::optional<Value> read_value) {
    for (const auto& t : subs) {
      {
        MutexLock lock(t->mu);
        if (!t->results[i]) {
          t->results[i] = read_value ? *read_value : Value{};
          ++t->completed;
        }
      }
      t->cv.NotifyAll();
    }
    // Tell a deterministic scheduler a completion for this process ran
    // (quiescence accounting; no-op on real backends). After the
    // notifies, before chaining — the chained issue re-enters the client.
    client->NoteCompletion(self);
    // Chain the next queued operation on this register, if any.
    QueuedOp next;
    bool have_next = false;
    {
      MutexLock lock(mu);
      Slot& slot = slots[i];
      if (slot.queue.empty()) {
        slot.busy = false;
      } else {
        next = std::move(slot.queue.front());
        slot.queue.pop_front();
        g_pending_depth->Add(-1);
        have_next = true;
      }
    }
    if (have_next) IssueOp(i, std::move(next));
  }
};

RegisterSet::RegisterSet(BaseRegisterClient& client, ProcessId self,
                         std::vector<RegisterId> regs)
    : shared_(std::make_shared<Shared>()) {
  assert(!regs.empty());
  shared_->client = &client;
  shared_->self = self;
  shared_->regs = std::move(regs);
  shared_->slots.resize(shared_->regs.size());
}

std::size_t RegisterSet::size() const { return shared_->regs.size(); }
ProcessId RegisterSet::self() const { return shared_->self; }
const std::vector<RegisterId>& RegisterSet::registers() const {
  return shared_->regs;
}

RegisterSet::Ticket RegisterSet::WriteAll(const Value& v) {
  Ticket ticket;
  ticket.state_ = std::make_shared<Ticket::State>(shared_->regs.size());
  shared_->IssuePhase(ticket.state_, /*is_write=*/true, v);
  return ticket;
}

RegisterSet::Ticket RegisterSet::ReadAll() {
  Ticket ticket;
  ticket.state_ = std::make_shared<Ticket::State>(shared_->regs.size());
  shared_->IssuePhase(ticket.state_, /*is_write=*/false, Value{});
  return ticket;
}

RegisterSet::Ticket RegisterSet::MergeEach(std::vector<Value> deltas) {
  assert(deltas.size() == shared_->regs.size());
  Ticket ticket;
  ticket.state_ = std::make_shared<Ticket::State>(shared_->regs.size());
  shared_->IssueMergePhase(ticket.state_, std::move(deltas));
  return ticket;
}

bool RegisterSet::Await(const Ticket& ticket, std::size_t k,
                        std::optional<std::chrono::milliseconds> timeout) {
  OpDeadline deadline;
  if (timeout) deadline = std::chrono::steady_clock::now() + *timeout;
  return AwaitUntil(ticket, k, deadline);
}

bool RegisterSet::AwaitUntil(const Ticket& ticket, std::size_t k,
                             OpDeadline deadline) {
  auto st = ticket.state_;
  const auto wait_start = std::chrono::steady_clock::now();
  bool ok;
  {
    // The wake closure owns the ticket state: a deterministic scheduler
    // may fire it after this frame returned.
    std::function<void()> wake = [st] {
      MutexLock lock(st->mu);
      st->cv.NotifyAll();
    };
    MutexLock lock(st->mu);
    ok = BlockedQuorumWait(
        *shared_->client, shared_->self, st->mu, st->cv, wake, deadline,
        [&] {
          st->mu.AssertHeld();  // predicates run under the lock
          return st->completed < k ? k - st->completed : std::size_t{0};
        },
        [&] {
          st->mu.AssertHeld();
          return st->completed >= k;
        });
  }
  const auto waited = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - wait_start)
          .count());
  shared_->quorum_waits.fetch_add(1, std::memory_order_relaxed);
  shared_->quorum_wait_us.fetch_add(waited, std::memory_order_relaxed);
  shared_->g_wait_hist->Observe(waited);
  return ok;
}

obs::PhaseCounters RegisterSet::op_metrics() const {
  obs::PhaseCounters out;
  out.quorum_waits = shared_->quorum_waits.load(std::memory_order_relaxed);
  out.quorum_wait_us = shared_->quorum_wait_us.load(std::memory_order_relaxed);
  out.pending_queued = shared_->pending_queued.load(std::memory_order_relaxed);
  out.max_pending_depth =
      shared_->max_pending_depth.load(std::memory_order_relaxed);
  return out;
}

}  // namespace nadreg::core
