#include "traced_client.h"

#include <algorithm>
#include <thread>
#include <utility>

namespace e2ebench {

using nadreg::ProcessId;
using nadreg::ReadHandler;
using nadreg::RegisterId;
using nadreg::Value;
using nadreg::WriteHandler;

TracedClient::TracedClient(nadreg::BaseRegisterClient& inner,
                           std::function<int(ProcessId)> session_of)
    : inner_(inner), session_of_(std::move(session_of)) {}

void TracedClient::Finish::operator()() {
  span.end_ns = NowNs();
  SessionState& st = self->sessions_[span.session];
  std::int64_t seen = st.last_completion_ns.load(std::memory_order_relaxed);
  while (span.end_ns > seen && !st.last_completion_ns.compare_exchange_weak(
                                   seen, span.end_ns, std::memory_order_relaxed)) {
  }
  self->completed_.fetch_add(1, std::memory_order_relaxed);
  Stripe& stripe = self->stripes_[std::hash<std::thread::id>{}(
                                      std::this_thread::get_id()) %
                                  kStripes];
  std::lock_guard<std::mutex> lock(stripe.mu);
  stripe.spans.push_back(span);
}

TracedClient::Finish TracedClient::StartSpan(int s, RegisterId r,
                                             BaseKind kind,
                                             std::int64_t start_ns) {
  BaseSpan span;
  span.start_ns = start_ns;
  span.op_id = sessions_[s].op_id.load(std::memory_order_relaxed);
  span.disk = r.disk;
  span.kind = kind;
  span.session = static_cast<std::uint8_t>(s);
  return Finish{this, span};
}

ReadHandler TracedClient::Wrap(Finish f, ReadHandler done) {
  return [f, done = std::move(done)](Value v) mutable {
    f();
    if (done) done(std::move(v));
  };
}

WriteHandler TracedClient::Wrap(Finish f, WriteHandler done) {
  return [f, done = std::move(done)]() mutable {
    f();
    if (done) done();
  };
}

void TracedClient::CountIssue(BaseKind kind, std::size_t n, bool vectored,
                              std::int64_t start_ns) {
  issue_ns_.fetch_add(static_cast<std::uint64_t>(NowNs() - start_ns),
                      std::memory_order_relaxed);
  issued_[kind].fetch_add(n, std::memory_order_relaxed);
  (vectored ? vectored_calls_ : single_calls_)
      .fetch_add(1, std::memory_order_relaxed);
}

void TracedClient::IssueRead(ProcessId p, RegisterId r, ReadHandler done) {
  const int s = session_of_(p);
  if (s < 0) return inner_.IssueRead(p, r, std::move(done));
  const std::int64_t t0 = NowNs();
  inner_.IssueRead(p, r, Wrap(StartSpan(s, r, kBaseRead, t0), std::move(done)));
  CountIssue(kBaseRead, 1, false, t0);
}

void TracedClient::IssueWrite(ProcessId p, RegisterId r, Value v,
                              WriteHandler done) {
  const int s = session_of_(p);
  if (s < 0) return inner_.IssueWrite(p, r, std::move(v), std::move(done));
  const std::int64_t t0 = NowNs();
  inner_.IssueWrite(p, r, std::move(v),
                    Wrap(StartSpan(s, r, kBaseWrite, t0), std::move(done)));
  CountIssue(kBaseWrite, 1, false, t0);
}

void TracedClient::IssueMerge(ProcessId p, RegisterId r, Value delta,
                              WriteHandler done) {
  const int s = session_of_(p);
  if (s < 0) return inner_.IssueMerge(p, r, std::move(delta), std::move(done));
  const std::int64_t t0 = NowNs();
  inner_.IssueMerge(p, r, std::move(delta),
                    Wrap(StartSpan(s, r, kBaseMerge, t0), std::move(done)));
  CountIssue(kBaseMerge, 1, false, t0);
}

void TracedClient::IssueReads(ProcessId p, std::vector<ReadOp> ops) {
  const int s = session_of_(p);
  if (s < 0) return inner_.IssueReads(p, std::move(ops));
  const std::int64_t t0 = NowNs();
  const std::size_t n = ops.size();
  for (ReadOp& op : ops) {
    op.done = Wrap(StartSpan(s, op.reg, kBaseRead, t0), std::move(op.done));
  }
  inner_.IssueReads(p, std::move(ops));
  CountIssue(kBaseRead, n, true, t0);
}

void TracedClient::IssueWrites(ProcessId p, std::vector<WriteOp> ops) {
  const int s = session_of_(p);
  if (s < 0) return inner_.IssueWrites(p, std::move(ops));
  const std::int64_t t0 = NowNs();
  const std::size_t n = ops.size();
  for (WriteOp& op : ops) {
    op.done = Wrap(StartSpan(s, op.reg, kBaseWrite, t0), std::move(op.done));
  }
  inner_.IssueWrites(p, std::move(ops));
  CountIssue(kBaseWrite, n, true, t0);
}

void TracedClient::IssueMerges(ProcessId p, std::vector<WriteOp> ops) {
  const int s = session_of_(p);
  if (s < 0) return inner_.IssueMerges(p, std::move(ops));
  const std::int64_t t0 = NowNs();
  const std::size_t n = ops.size();
  for (WriteOp& op : ops) {
    op.done = Wrap(StartSpan(s, op.reg, kBaseMerge, t0), std::move(op.done));
  }
  inner_.IssueMerges(p, std::move(ops));
  CountIssue(kBaseMerge, n, true, t0);
}

bool TracedClient::NoteBlocked(ProcessId p, std::size_t remaining,
                               std::function<void()> wake) {
  const int s = session_of_(p);
  if (s >= 0) sessions_[s].blocked_since_ns = NowNs();
  return inner_.NoteBlocked(p, remaining, std::move(wake));
}

void TracedClient::NoteRunnable(ProcessId p) {
  const int s = session_of_(p);
  if (s >= 0) {
    SessionState& st = sessions_[s];
    const std::int64_t b1 = NowNs();
    const std::int64_t b0 = st.blocked_since_ns;
    const std::int64_t last =
        st.last_completion_ns.load(std::memory_order_relaxed);
    st.blocked_ns.fetch_add(static_cast<std::uint64_t>(b1 - b0),
                            std::memory_order_relaxed);
    st.unattributed_ns.fetch_add(
        static_cast<std::uint64_t>(b1 - std::clamp(last, b0, b1)),
        std::memory_order_relaxed);
  }
  inner_.NoteRunnable(p);
}

TracedClient::Totals TracedClient::totals() const {
  Totals t;
  for (int k = 0; k < 3; ++k) {
    t.issued[k] = issued_[k].load(std::memory_order_relaxed);
  }
  t.completed = completed_.load(std::memory_order_relaxed);
  t.vectored_calls = vectored_calls_.load(std::memory_order_relaxed);
  t.single_calls = single_calls_.load(std::memory_order_relaxed);
  t.issue_ns = issue_ns_.load(std::memory_order_relaxed);
  for (const SessionState& st : sessions_) {
    t.blocked_ns += st.blocked_ns.load(std::memory_order_relaxed);
    t.unattributed_ns += st.unattributed_ns.load(std::memory_order_relaxed);
  }
  return t;
}

std::vector<BaseSpan> TracedClient::Spans() const {
  std::vector<BaseSpan> out;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    out.insert(out.end(), stripe.spans.begin(), stripe.spans.end());
  }
  return out;
}

}  // namespace e2ebench
