// TracedClient — the benchmark's base-register decorator for traced runs.
//
// Wraps the real client (a nad::NadClient) and forwards every virtual of
// BaseRegisterClient, so the emulations above it behave exactly as over
// the bare client: merges stay available (core::CodedMwmr::Make checks
// SupportsMerge), breaker suspicion still reaches core::RegisterSet, and
// the scheduler hooks still reach the inner client. On the way it counts
// and times every base operation from issue to completion, and tags each
// with the emulated operation its session was running, so a base-op span
// is a child of that operation's span.
//
// The quorum-wait hooks give the one more thing a layer sum needs: each
// blocked interval of a session (NoteBlocked → NoteRunnable, both on the
// session thread). The part of it after the session's latest base-op
// completion is the dispatch → waiter-wake hand-off, which no base-op span
// covers; it is accumulated as `unattributed_ns`.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "common/base_register.h"

namespace e2ebench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One base-register operation, issue → completion handler.
struct BaseSpan {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t op_id = 0;  // emulated op its session was running (0: none)
  std::uint32_t disk = 0;
  std::uint8_t kind = 0;  // BaseKind
  std::uint8_t session = 0;
};

enum BaseKind : std::uint8_t { kBaseRead = 0, kBaseWrite = 1, kBaseMerge = 2 };

class TracedClient final : public nadreg::BaseRegisterClient {
 public:
  static constexpr int kMaxSessions = 4;

  /// `session_of` maps a ProcessId to its session index in
  /// [0, kMaxSessions), or -1 for operations left uncounted (raw probes).
  /// `inner` must outlive this object; every operation still pending on
  /// `inner` must be dropped (the inner client destroyed) before this
  /// object is, because the wrapped handlers point back at it.
  TracedClient(nadreg::BaseRegisterClient& inner,
               std::function<int(nadreg::ProcessId)> session_of);

  TracedClient(const TracedClient&) = delete;
  TracedClient& operator=(const TracedClient&) = delete;

  /// Marks the emulated operation session `s` runs from now on (0 = none).
  void SetCurrentOp(int s, std::uint64_t op_id) {
    sessions_[s].op_id.store(op_id, std::memory_order_relaxed);
  }

  void IssueRead(nadreg::ProcessId p, nadreg::RegisterId r,
                 nadreg::ReadHandler done) override;
  void IssueWrite(nadreg::ProcessId p, nadreg::RegisterId r, nadreg::Value v,
                  nadreg::WriteHandler done) override;
  void IssueReads(nadreg::ProcessId p, std::vector<ReadOp> ops) override;
  void IssueWrites(nadreg::ProcessId p, std::vector<WriteOp> ops) override;
  bool SupportsMerge() const override { return inner_.SupportsMerge(); }
  void IssueMerge(nadreg::ProcessId p, nadreg::RegisterId r,
                  nadreg::Value delta, nadreg::WriteHandler done) override;
  void IssueMerges(nadreg::ProcessId p, std::vector<WriteOp> ops) override;
  bool NoteBlocked(nadreg::ProcessId p, std::size_t remaining,
                   std::function<void()> wake) override;
  void NoteRunnable(nadreg::ProcessId p) override;
  void NoteCompletion(nadreg::ProcessId p) override {
    inner_.NoteCompletion(p);
  }
  bool Abandoned() const override { return inner_.Abandoned(); }
  bool IsSuspectedCrashed(nadreg::DiskId d) const override {
    return inner_.IsSuspectedCrashed(d);
  }

  struct Totals {
    std::uint64_t issued[3] = {0, 0, 0};  // by BaseKind
    std::uint64_t completed = 0;
    std::uint64_t vectored_calls = 0;  // IssueReads/Writes/Merges: one round
    std::uint64_t single_calls = 0;    // IssueRead/Write/Merge: queued ops
    std::uint64_t issue_ns = 0;        // time inside the inner Issue* calls
    std::uint64_t blocked_ns = 0;      // time in quorum waits
    std::uint64_t unattributed_ns = 0;  // blocked after the last completion
  };
  /// Counters so far (call once the sessions have stopped).
  Totals totals() const;
  /// Every completed span so far, unordered (call once quiescent).
  std::vector<BaseSpan> Spans() const;

 private:
  struct alignas(64) SessionState {
    std::atomic<std::uint64_t> op_id{0};
    std::atomic<std::int64_t> last_completion_ns{0};
    // Session-thread only: NoteBlocked/NoteRunnable run on the waiter.
    std::int64_t blocked_since_ns = 0;
    std::atomic<std::uint64_t> blocked_ns{0};
    std::atomic<std::uint64_t> unattributed_ns{0};
  };
  // Completion handlers run on the inner client's loop threads; spans go
  // to a stripe picked by thread, so the loops rarely share a lock.
  struct alignas(64) Stripe {
    mutable std::mutex mu;
    std::vector<BaseSpan> spans;
  };
  static constexpr std::size_t kStripes = 8;

  /// Runs first in every wrapped completion: closes the op's span.
  struct Finish {
    TracedClient* self;
    BaseSpan span;  // end_ns filled in on completion
    void operator()();
  };
  Finish StartSpan(int s, nadreg::RegisterId r, BaseKind kind,
                   std::int64_t start_ns);
  nadreg::ReadHandler Wrap(Finish f, nadreg::ReadHandler done);
  nadreg::WriteHandler Wrap(Finish f, nadreg::WriteHandler done);
  void CountIssue(BaseKind kind, std::size_t n, bool vectored,
                  std::int64_t start_ns);

  nadreg::BaseRegisterClient& inner_;
  std::function<int(nadreg::ProcessId)> session_of_;
  std::array<SessionState, kMaxSessions> sessions_;
  std::array<Stripe, kStripes> stripes_;
  std::atomic<std::uint64_t> issued_[3] = {0, 0, 0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> vectored_calls_{0};
  std::atomic<std::uint64_t> single_calls_{0};
  std::atomic<std::uint64_t> issue_ns_{0};
};

}  // namespace e2ebench
