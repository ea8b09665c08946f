/// \file
/// One process's quorum engine over a fixed set of base registers, with the
/// paper's pending-write discipline.
///
/// Model rule (Section 2): a process never has two simultaneous operations
/// outstanding on the same base register. Footnotes 3/6/7: if a WRITE wants
/// to write a base register that still has a pending write from a previous
/// WRITE, the writer "forks a background task to issue the write as soon as
/// all previous writes have finished". RegisterSet implements exactly that:
/// per base register it keeps at most one outstanding operation and a FIFO
/// of follow-ups, issued from the completion handler of the predecessor. A
/// crashed register therefore stalls its queue forever — and the quorum
/// waits never require it, which is what keeps the algorithms wait-free.
///
/// A lagging register's queue stays bounded by what is still live:
///  - consecutive queued reads are coalesced (a queued-but-unissued read
///    is indistinguishable from a fresh one), and a queued read whose
///    tickets were all dropped is never issued — a read has no side
///    effect — so a loop of READ phases over a crashed register uses O(1)
///    memory;
///  - a queued merge is replaced by a later merge that subsumes it
///    (CodedDeltaSubsumes), which completes its tickets in its stead;
///  - tickets are held weakly: a completion whose ticket is gone stores
///    nothing, so an op finished at a quorum pins none of its results
///    while its slowest register is still outstanding.
/// Writes never coalesce: each one is the paper's pending write.
///
/// A phase's immediately-issuable registers go to the client in one
/// vectored IssueReads/IssueWrites call, so the TCP backend sends the
/// whole fan-out with one writev per disk (per-register semantics
/// are untouched — each op still completes, or silently never does, on
/// its own). ReadAllOf/WriteAllOf widen one such call to a *round* over
/// many sets of the same process — the snapshot layer's way to probe a
/// whole knowledge frontier of sticky bits with one issue and one wait.
/// ReadAll/WriteAll are the one-set round.
///
/// Observability: the engine accounts for the paper's two cost centres —
/// time blocked in quorum waits and depth of the pending-write queues —
/// both locally (op_metrics()) and in the global obs registry
/// ("core.quorum_wait_us", "core.pending_depth").
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/base_register.h"
#include "common/op_options.h"
#include "common/types.h"
#include "obs/instrumented.h"

namespace nadreg::core {

class RegisterSet : public obs::Instrumented {
 public:
  /// Completion record of one quorum round: which registers responded
  /// and, for reads, what they returned. A round has one *part* per set it
  /// covers, in the order the sets were passed (single-set calls: part 0).
  class Ticket {
   public:
    /// Number of completions of `part` so far.
    std::size_t Completed(std::size_t part = 0) const;
    /// (register index, value) pairs of `part` completed so far; writes
    /// carry an empty value. Indices refer to that set's register vector.
    std::vector<std::pair<std::size_t, Value>> Results(
        std::size_t part = 0) const;

   private:
    friend class RegisterSet;
    struct State;
    std::shared_ptr<State> state_;
  };

  /// One set's write within a WriteAllOf round (`value` must outlive the
  /// call).
  struct SetWrite {
    RegisterSet* set;
    const Value* value;
  };

  /// `client` must outlive this object and all of its pending operations.
  RegisterSet(BaseRegisterClient& client, ProcessId self,
              std::vector<RegisterId> regs);

  RegisterSet(const RegisterSet&) = delete;
  RegisterSet& operator=(const RegisterSet&) = delete;

  std::size_t size() const;
  ProcessId self() const;
  const std::vector<RegisterId>& registers() const;

  /// Issues (or queues, per the pending-write discipline) a write of `v`
  /// to every base register of the set.
  Ticket WriteAll(const Value& v);

  /// Issues (or queues, with coalescing) a read of every base register.
  Ticket ReadAll();

  /// One read round over distinct sets sharing one client and ProcessId:
  /// every issuable register of every set goes out in ONE IssueReads call;
  /// busy slots queue and coalesce exactly as under ReadAll. Part p of the
  /// ticket is sets[p].
  static Ticket ReadAllOf(std::span<RegisterSet* const> sets);

  /// One write round, likewise: ONE IssueWrites call for every issuable
  /// register; busy slots queue behind their pending op. Part p of the
  /// ticket is writes[p].set, written with *writes[p].value.
  static Ticket WriteAllOf(std::span<const SetWrite> writes);

  /// Issues (or queues, like writes) a coded-cell merge with a DISTINCT
  /// delta per base register — the coded write phase's fan-out, where
  /// register i receives fragment i's Put delta. `deltas` must have one
  /// entry per register. Requires client.SupportsMerge(); merges follow
  /// the same pending-op discipline as writes, except that a queued merge
  /// is dropped when a later merge to its register subsumes it (its
  /// ticket then completes with the later one): the join makes every
  /// delta's effect reach the cell either way.
  Ticket MergeEach(std::vector<Value> deltas);

  /// Blocks until at least `k` operations of EVERY part of the ticket
  /// completed — one wait for a whole round. A round ticket may be awaited
  /// through any set it covers; the wait is accounted to that set.
  /// Returns false on timeout (when a deadline is supplied).
  bool Await(const Ticket& ticket, std::size_t k,
             std::optional<std::chrono::milliseconds> timeout = std::nullopt);

  /// Await against an absolute deadline (the unified-API plumbing).
  bool AwaitUntil(const Ticket& ticket, std::size_t k, OpDeadline deadline);

  /// Quorum-wait and pending-queue accounting for this set.
  obs::PhaseCounters op_metrics() const override;

 private:
  struct Shared;
  std::shared_ptr<Shared> shared_;
};

}  // namespace nadreg::core
