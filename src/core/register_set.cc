#include "core/register_set.h"

#include <atomic>
#include <cassert>

#include "common/quorum_wait.h"
#include "common/sync.h"
#include "obs/metrics.h"

namespace nadreg::core {

struct RegisterSet::Ticket::State {
  // Part p (one per set of the round) owns the result slots
  // [begin, next part's begin or results.size()).
  struct Part {
    std::size_t begin = 0;
    std::size_t completed = 0;
  };

  mutable Mutex mu;
  CondVar cv;
  std::vector<Part> parts GUARDED_BY(mu);
  // One slot per register of the round; set when that register's op
  // completes.
  std::vector<std::optional<Value>> results GUARDED_BY(mu);
  // The running Await's k, and how many more completions it needs (the
  // summed shortfall of the parts below k).
  std::size_t need GUARDED_BY(mu) = 0;
  std::size_t short_by GUARDED_BY(mu) = 0;

  State(std::vector<Part> p, std::size_t n)
      : parts(std::move(p)), results(n) {}

  // A ticket with one part per set; `size_of(p)` = registers of part p.
  template <typename SizeOf>
  static std::shared_ptr<State> Make(std::size_t num_parts, SizeOf size_of) {
    std::vector<Part> p(num_parts);
    std::size_t n = 0;
    for (std::size_t i = 0; i < num_parts; ++i) {
      p[i].begin = n;
      n += size_of(i);
    }
    return std::make_shared<State>(std::move(p), n);
  }

  std::size_t PartEnd(std::size_t part) const REQUIRES(mu) {
    return part + 1 < parts.size() ? parts[part + 1].begin : results.size();
  }

  // Records register i of `part`. True when the running Await should be
  // notified: when this completion leaves it one short — so the waiter is
  // back on a CPU when the last one lands — and when it satisfies it. A
  // round of hundreds of ops thus wakes its waiter twice, not per op.
  bool Complete(std::size_t part, std::size_t i,
                const std::optional<Value>& v) REQUIRES(mu) {
    std::optional<Value>& slot = results[parts[part].begin + i];
    if (slot) return false;
    slot = v ? *v : Value{};
    if (parts[part].completed++ >= need) return false;  // part already at k
    return --short_by <= 1;
  }
};

std::size_t RegisterSet::Ticket::Completed(std::size_t part) const {
  MutexLock lock(state_->mu);
  return state_->parts[part].completed;
}

std::vector<std::pair<std::size_t, Value>> RegisterSet::Ticket::Results(
    std::size_t part) const {
  MutexLock lock(state_->mu);
  std::vector<std::pair<std::size_t, Value>> out;
  out.reserve(state_->parts[part].completed);
  const std::size_t begin = state_->parts[part].begin;
  for (std::size_t i = begin; i < state_->PartEnd(part); ++i) {
    if (state_->results[i]) out.emplace_back(i - begin, *state_->results[i]);
  }
  return out;
}

struct RegisterSet::Shared : std::enable_shared_from_this<RegisterSet::Shared> {
  enum class Kind { kRead, kWrite, kMerge };
  // One ticket part waiting on an op of this set.
  struct Subscriber {
    std::shared_ptr<Ticket::State> ticket;
    std::size_t part = 0;
  };
  struct QueuedOp {
    Kind kind = Kind::kRead;
    Value value;  // writes and merges only (a merge's delta)
    // Ticket parts to notify on completion. Reads may have several
    // (coalesced).
    std::vector<Subscriber> subscribers;
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

  // This set's share of a round, with the paper's pending-write discipline
  // per register: claims every free slot (returned — the caller puts them
  // into the round's one vectored call) and queues the rest behind their
  // pending op, to be chained from OnComplete. A fresh read coalesces with
  // a queued (unissued) read — one that has not been issued yet is as
  // fresh as a new one; writes and merges never coalesce. `payload(i)` is
  // register i's value for a queued write or merge.
  template <typename Payload>
  std::vector<std::size_t> Gather(const Subscriber& sub, Kind kind,
                                  Payload&& payload) {
    std::vector<std::size_t> to_issue;
    to_issue.reserve(regs.size());
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
      if (kind == Kind::kRead && !slot.queue.empty() &&
          slot.queue.back().kind == Kind::kRead) {
        slot.queue.back().subscribers.push_back(sub);
        continue;
      }
      QueuedOp op;
      op.kind = kind;
      if (kind != Kind::kRead) op.value = payload(i);
      op.subscribers = {sub};
      slot.queue.push_back(std::move(op));
      NoteQueued(slot.queue.size());
    }
    return to_issue;
  }

  BaseRegisterClient::ReadOp ReadOpFor(std::size_t i, Subscriber sub) {
    return {regs[i], [self_ptr = shared_from_this(), i,
                      sub = std::move(sub)](Value value) {
              self_ptr->OnComplete(i, std::span(&sub, 1), std::move(value));
            }};
  }

  BaseRegisterClient::WriteOp WriteOpFor(std::size_t i, Subscriber sub,
                                         Value value) {
    return {regs[i], std::move(value),
            [self_ptr = shared_from_this(), i, sub = std::move(sub)] {
              self_ptr->OnComplete(i, std::span(&sub, 1), std::nullopt);
            }};
  }

  void IssueOp(std::size_t i, QueuedOp op) {
    auto self_ptr = shared_from_this();
    auto subs = std::move(op.subscribers);
    if (op.kind == Kind::kRead) {
      client->IssueRead(self, regs[i],
                        [self_ptr, i, subs = std::move(subs)](Value v) {
                          self_ptr->OnComplete(i, subs, std::move(v));
                        });
      return;
    }
    WriteHandler done = [self_ptr, i, subs = std::move(subs)] {
      self_ptr->OnComplete(i, subs, std::nullopt);
    };
    if (op.kind == Kind::kMerge) {
      client->IssueMerge(self, regs[i], std::move(op.value), std::move(done));
    } else {
      client->IssueWrite(self, regs[i], std::move(op.value), std::move(done));
    }
  }

  void OnComplete(std::size_t i, std::span<const Subscriber> subs,
                  std::optional<Value> read_value) {
    for (const Subscriber& sub : subs) {
      Ticket::State& t = *sub.ticket;
      bool satisfied;
      {
        MutexLock lock(t.mu);
        satisfied = t.Complete(sub.part, i, read_value);
      }
      if (satisfied) t.cv.NotifyAll();
    }
    // Tell a deterministic scheduler a completion for this process ran
    // (quiescence accounting; no-op on real backends). After the
    // notifies, before chaining — the chained issue re-enters the client.
    // It also covers the completions that did not notify: the scheduler
    // kicks the poked waiter so it refreshes its remaining count.
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
  const SetWrite write{this, &v};
  return WriteAllOf(std::span(&write, 1));
}

RegisterSet::Ticket RegisterSet::ReadAll() {
  RegisterSet* const set = this;
  return ReadAllOf(std::span(&set, 1));
}

RegisterSet::Ticket RegisterSet::ReadAllOf(
    std::span<RegisterSet* const> sets) {
  Ticket ticket;
  ticket.state_ = Ticket::State::Make(
      sets.size(), [&](std::size_t p) { return sets[p]->size(); });
  if (sets.empty()) return ticket;
  const Shared& lead = *sets.front()->shared_;
  std::vector<BaseRegisterClient::ReadOp> ops;
  ops.reserve(sets.size() * lead.regs.size());
  for (std::size_t p = 0; p < sets.size(); ++p) {
    Shared& sh = *sets[p]->shared_;
    assert(sh.client == lead.client && sh.self == lead.self &&
           "a round belongs to one process on one client");
    const Shared::Subscriber sub{ticket.state_, p};
    for (std::size_t i :
         sh.Gather(sub, Shared::Kind::kRead, [](std::size_t) { return Value{}; })) {
      ops.push_back(sh.ReadOpFor(i, sub));
    }
  }
  if (!ops.empty()) lead.client->IssueReads(lead.self, std::move(ops));
  return ticket;
}

RegisterSet::Ticket RegisterSet::WriteAllOf(std::span<const SetWrite> writes) {
  Ticket ticket;
  ticket.state_ = Ticket::State::Make(
      writes.size(), [&](std::size_t p) { return writes[p].set->size(); });
  if (writes.empty()) return ticket;
  const Shared& lead = *writes.front().set->shared_;
  std::vector<BaseRegisterClient::WriteOp> ops;
  ops.reserve(writes.size() * lead.regs.size());
  for (std::size_t p = 0; p < writes.size(); ++p) {
    Shared& sh = *writes[p].set->shared_;
    assert(sh.client == lead.client && sh.self == lead.self &&
           "a round belongs to one process on one client");
    const Value& v = *writes[p].value;
    const Shared::Subscriber sub{ticket.state_, p};
    for (std::size_t i :
         sh.Gather(sub, Shared::Kind::kWrite, [&](std::size_t) { return v; })) {
      ops.push_back(sh.WriteOpFor(i, sub, v));
    }
  }
  if (!ops.empty()) lead.client->IssueWrites(lead.self, std::move(ops));
  return ticket;
}

RegisterSet::Ticket RegisterSet::MergeEach(std::vector<Value> deltas) {
  assert(deltas.size() == shared_->regs.size());
  Ticket ticket;
  ticket.state_ = Ticket::State::Make(1, [&](std::size_t) { return size(); });
  Shared& sh = *shared_;
  const Shared::Subscriber sub{ticket.state_, 0};
  // Register i receives its own delta; queued merges never coalesce —
  // every delta must take effect for the cell join to converge.
  std::vector<BaseRegisterClient::WriteOp> ops;
  ops.reserve(deltas.size());
  for (std::size_t i : sh.Gather(sub, Shared::Kind::kMerge, [&](std::size_t j) {
         return std::move(deltas[j]);
       })) {
    ops.push_back(sh.WriteOpFor(i, sub, std::move(deltas[i])));
  }
  if (!ops.empty()) sh.client->IssueMerges(sh.self, std::move(ops));
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
    st->need = k;
    st->short_by = 0;
    for (const auto& part : st->parts) {
      if (part.completed < k) st->short_by += k - part.completed;
    }
    ok = BlockedQuorumWait(
        *shared_->client, shared_->self, st->mu, st->cv, wake, deadline,
        [&] {
          st->mu.AssertHeld();  // predicates run under the lock
          // Distinct sets: one delivery advances one part, so the summed
          // shortfall is a lower bound on the deliveries still needed.
          return st->short_by;
        },
        [&] {
          st->mu.AssertHeld();
          return st->short_by == 0;
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
