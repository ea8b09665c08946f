#include "nad/client.h"

#include <algorithm>
#include <limits>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/hotpath_stats.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/sync.h"
#include "nad/pending_table.h"
#include "obs/trace.h"

namespace nadreg::nad {
namespace {

using Clock = std::chrono::steady_clock;

/// suspected_until_us sentinel: suspected forever (dead-for-good link).
constexpr std::int64_t kSuspectForever = std::numeric_limits<std::int64_t>::max();

std::int64_t ToUs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             t.time_since_epoch())
      .count();
}

/// One in-flight operation. Lives in the connection's PendingTable, whose
/// slots never move — the zero-copy wire path references `value` IN PLACE
/// from the gather queue, which is sound only because of that stability
/// (and because a response for the op proves its frame already left; see
/// HandleFrame for the byzantine-server case).
struct PendingOp {
  MsgType req_type = MsgType::kReadReq;  // kReadReq / kWriteReq / kStatsReq
  RegisterId reg;
  Clock::time_point start{};
  Clock::time_point expires{};
  Value value;  // writes only: owned here until completion or expiry
  ReadHandler on_read;
  WriteHandler on_write;
  NadClient::StatsHandler on_stats;
};

}  // namespace

/// One admitted op en route from Submit (any thread) to Admit (the
/// owning loop). Deadlines are resolved at Submit time so queueing delay
/// counts against the budget.
struct NadClient::SubmitEntry {
  Op op;
  Conn* conn = nullptr;
  Clock::time_point start;
  Clock::time_point expires;
};

/// Per-disk connection. Everything below `loop` is owned by that loop
/// and touched only on its thread (the single-writer rule, DESIGN.md
/// §12) — no mutexes. The two atomics at the bottom are the published
/// cross-thread view.
struct NadClient::Conn final : EventLoop::IoWatcher {
  NadClient* client;
  const DiskId disk;
  const Endpoint endpoint;  // immutable; reconnect target
  EventLoop* loop = nullptr;
  std::size_t loop_index = 0;

  /// kUp: socket healthy. kConnecting: non-blocking redial in flight.
  /// kBackoff: waiting on the wheel for the next redial. kDown: dead for
  /// good (reconnect disabled).
  enum class Link { kUp, kConnecting, kBackoff, kDown };
  Link link = Link::kUp;
  /// The socket, the response bytes, and the gather queue of request
  /// frames: headers in its arena, write values referenced in place from
  /// their pending-table entries (zero-copy).
  FramedConn io;
  std::uint64_t next_request_id = 1;
  /// Set while an Admit pass has queued this conn for its flush step.
  bool admit_queued = false;

  /// Admitted request ids not yet framed (the coalescing unit). Ids, not
  /// entry pointers: an op staged while the link is down can expire
  /// before framing, so SendStaged re-resolves against the table.
  std::vector<std::uint64_t> staged;
  /// All in-flight ops, one table per connection (the structural shard).
  PendingTable<PendingOp> pending;

  BackoffState backoff;
  CircuitBreaker breaker;
  /// Deterministic per-disk jitter stream (decorrelates the reconnect
  /// storms of many clients hitting one recovered disk).
  Rng rng;
  std::uint64_t sweep_timer = 0;  // wheel id; 0 = unarmed
  Clock::time_point sweep_deadline{};
  std::uint64_t redial_timer = 0;  // wheel id; 0 = unarmed

  /// Published view of IsSuspectedCrashed: 0 = not suspected, a steady-
  /// clock microsecond stamp = suspected until then, kSuspectForever =
  /// dead for good. Written by the owning loop, read from any thread.
  std::atomic<std::int64_t> suspected_until_us{0};

  Conn(NadClient* c, DiskId d, Endpoint ep, Socket sock,
       const RetryPolicy& policy)
      : client(c),
        disk(d),
        endpoint(std::move(ep)),
        io(std::move(sock)),
        backoff(policy),
        breaker(policy),
        rng(0x9e3779b97f4a7c15ULL ^ (static_cast<std::uint64_t>(d) << 17)) {}

  void OnIoReady(std::uint32_t events) override {
    client->OnIoReady(this, events);
  }
};

NadClient::NadClient(Options options)
    : options_(options),
      read_us_(&obs::Registry::Global().GetHistogram("nad.client.read_us")),
      write_us_(&obs::Registry::Global().GetHistogram("nad.client.write_us")),
      batch_size_(
          &obs::Registry::Global().GetHistogram("nad.client.batch_size")),
      in_flight_(&obs::Registry::Global().GetGauge("nad.client.in_flight")),
      rejected_oversized_(&obs::Registry::Global().GetCounter(
          "nad.client.rejected_oversized")),
      retries_(&obs::Registry::Global().GetCounter("nad.client.retries")),
      reconnects_(
          &obs::Registry::Global().GetCounter("nad.client.reconnects")),
      reconnect_failures_(&obs::Registry::Global().GetCounter(
          "nad.client.reconnect_failures")),
      expired_(&obs::Registry::Global().GetCounter("nad.client.expired")),
      breaker_open_(
          &obs::Registry::Global().GetCounter("nad.client.breaker_open")) {}

Expected<std::unique_ptr<NadClient>> NadClient::Connect(
    std::map<DiskId, Endpoint> endpoints, Options options) {
  if (options.num_event_loops > kMaxEventLoops) {
    return Status::Invalid("num_event_loops " +
                           std::to_string(options.num_event_loops) +
                           " exceeds the limit of " +
                           std::to_string(kMaxEventLoops));
  }
  std::unique_ptr<NadClient> client(new NadClient(options));
  for (const auto& [disk, ep] : endpoints) {
    auto sock = nad::Connect(ep.host, ep.port);
    if (!sock) return sock.status();
    if (Status st = SetNonBlocking(*sock); !st.ok()) return st;
    client->conns_.emplace(
        disk, std::make_unique<Conn>(client.get(), disk, ep, std::move(*sock),
                                     options.retry));
  }
  std::size_t n = options.num_event_loops;
  if (n == 0) n = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  n = std::min(n, std::max<std::size_t>(1, client->conns_.size()));
  for (std::size_t i = 0; i < n; ++i) {
    auto loop = EventLoop::Create();
    if (!loop) return loop.status();
    client->loops_.push_back(std::move(*loop));
  }
  std::size_t idx = 0;
  for (auto& [disk, conn] : client->conns_) {
    conn->loop = client->loops_[idx % n].get();
    conn->loop_index = idx % n;
    ++idx;
  }
  // If a loop dies of an epoll failure, its share of the connections
  // must fail over (suspected forever, pending ops resolved) instead of
  // silently hanging every op posted to the dead loop.
  for (auto& loop : client->loops_) {
    EventLoop* lp = loop.get();
    lp->SetFatalHandler([c = client.get(), lp] { c->OnLoopDead(lp); });
  }
  for (auto& loop : client->loops_) loop->Start();
  // Register each socket on its owning loop. The inbox is FIFO, so this
  // runs before any Submit admission posted afterwards can flush.
  for (auto& [disk, conn] : client->conns_) {
    Conn* cp = conn.get();
    cp->loop->Post([c = client.get(), cp] { c->RegisterConn(cp); });
  }
  return client;
}

NadClient::~NadClient() {
  // Stop all loops, then join: once no loop thread runs, the connection
  // state has no writer left and tears down without synchronization.
  // Pending handlers are destroyed unrun — crashed-register semantics to
  // the very end, exactly like the old reader/sender shutdown.
  for (auto& loop : loops_) loop->Stop();
  for (auto& loop : loops_) loop->Join();
}

NadClient::Conn* NadClient::ConnFor(DiskId d) const {
  auto it = conns_.find(d);
  return it == conns_.end() ? nullptr : it->second.get();
}

std::chrono::steady_clock::time_point NadClient::ExpiryFrom(
    std::chrono::steady_clock::time_point now) const {
  if (options_.op_timeout.count() <= 0) {
    return std::chrono::steady_clock::time_point::max();
  }
  return now + options_.op_timeout;
}

bool NadClient::IsSuspectedCrashed(DiskId d) const {
  Conn* conn = ConnFor(d);
  if (conn == nullptr) return true;  // unmapped disk behaves as crashed
  const std::int64_t until =
      conn->suspected_until_us.load(std::memory_order_relaxed);
  if (until == 0) return false;
  if (until == kSuspectForever) return true;
  // The loop stamps open-breaker suspicion as opened_at + cooldown, so
  // suspicion clears exactly when the breaker would half-open and probes
  // should start flowing again.
  return ToUs(Clock::now()) < until;
}

void NadClient::AddInFlight(std::int64_t delta) {
  in_flight_count_.fetch_add(delta, std::memory_order_relaxed);
  in_flight_->Add(delta);
}

std::size_t NadClient::InFlight() const {
  const std::int64_t v = in_flight_count_.load(std::memory_order_relaxed);
  return v > 0 ? static_cast<std::size_t>(v) : 0;
}

void NadClient::RejectOversized(const RegisterId& r, std::size_t value_bytes) {
  rejected_oversized_->Inc();
  LOG_WARN << "nad-client: dropping write of " << value_bytes
           << " bytes to disk " << r.disk << " block " << r.block
           << ": value cannot fit a " << kMaxFrameBytes
           << "-byte frame (handler will never run)";
}

NadClient::Op NadClient::Op::Read(RegisterId r, ReadHandler done) {
  Op op;
  op.kind = Kind::kRead;
  op.reg = r;
  op.on_read = std::move(done);
  return op;
}

NadClient::Op NadClient::Op::Write(RegisterId r, Value v, WriteHandler done) {
  Op op;
  op.kind = Kind::kWrite;
  op.reg = r;
  op.value = std::move(v);
  op.on_write = std::move(done);
  return op;
}

NadClient::Op NadClient::Op::Merge(RegisterId r, Value delta,
                                   WriteHandler done) {
  Op op;
  op.kind = Kind::kMerge;
  op.reg = r;
  op.value = std::move(delta);
  op.on_write = std::move(done);
  return op;
}

NadClient::Op NadClient::Op::Stats(DiskId d, StatsHandler done) {
  Op op;
  op.kind = Kind::kStats;
  op.reg.disk = d;
  op.on_stats = std::move(done);
  return op;
}

void NadClient::Submit(ProcessId /*p*/, std::vector<Op> ops,
                       const OpOptions& opts) {
  const auto now = Clock::now();
  const auto expires =
      opts.deadline.has_value() ? now + *opts.deadline : ExpiryFrom(now);
  // Group per owning loop so one Post hands each loop its whole share of
  // the batch atomically — the admission pass then writes everything
  // bound for one disk with one writev (and each loop wakes once).
  std::vector<std::vector<SubmitEntry>> per_loop(loops_.size());
  for (Op& op : ops) {
    Conn* conn = ConnFor(op.reg.disk);
    if (conn == nullptr || conn->loop->dead()) {
      // Unmapped disk — or one whose owning loop died of an epoll
      // failure, where a Post would land in a queue no thread serves —
      // behaves as crashed: the handler never runs, except STATS, which
      // is observability, not a model op, and fails fast.
      if (op.kind == Op::Kind::kStats && op.on_stats) {
        op.on_stats(Status::Unavailable(
            conn == nullptr ? "stats: unmapped disk" : "stats: loop dead"));
      }
      continue;
    }
    if ((op.kind == Op::Kind::kWrite || op.kind == Op::Kind::kMerge) &&
        op.value.size() > kMaxFrameBytes - kWriteReqOverhead) {
      RejectOversized(op.reg, op.value.size());
      continue;
    }
    AddInFlight(1);
    std::vector<SubmitEntry>& share = per_loop[conn->loop_index];
    if (share.empty()) share.reserve(ops.size());
    share.push_back(SubmitEntry{std::move(op), conn, now, expires});
  }
  for (std::size_t i = 0; i < per_loop.size(); ++i) {
    if (per_loop[i].empty()) continue;
    // shared_ptr capture: std::function requires copyable callables and
    // C++20 has no move_only_function to carry the vector by value.
    auto batch =
        std::make_shared<std::vector<SubmitEntry>>(std::move(per_loop[i]));
    loops_[i]->Post([this, batch] { Admit(std::move(*batch)); });
  }
}

void NadClient::IssueRead(ProcessId p, RegisterId r, ReadHandler done) {
  std::vector<Op> ops;
  ops.push_back(Op::Read(r, std::move(done)));
  Submit(p, std::move(ops));
}

void NadClient::IssueWrite(ProcessId p, RegisterId r, Value v,
                           WriteHandler done) {
  std::vector<Op> ops;
  ops.push_back(Op::Write(r, std::move(v), std::move(done)));
  Submit(p, std::move(ops));
}

void NadClient::IssueReads(ProcessId p, std::vector<ReadOp> ops) {
  std::vector<Op> batch;
  batch.reserve(ops.size());
  for (ReadOp& op : ops) batch.push_back(Op::Read(op.reg, std::move(op.done)));
  Submit(p, std::move(batch));
}

void NadClient::IssueWrites(ProcessId p, std::vector<WriteOp> ops) {
  std::vector<Op> batch;
  batch.reserve(ops.size());
  for (WriteOp& op : ops) {
    batch.push_back(Op::Write(op.reg, std::move(op.value), std::move(op.done)));
  }
  Submit(p, std::move(batch));
}

void NadClient::IssueMerge(ProcessId p, RegisterId r, Value delta,
                           WriteHandler done) {
  std::vector<Op> ops;
  ops.push_back(Op::Merge(r, std::move(delta), std::move(done)));
  Submit(p, std::move(ops));
}

void NadClient::IssueMerges(ProcessId p, std::vector<WriteOp> ops) {
  std::vector<Op> batch;
  batch.reserve(ops.size());
  for (WriteOp& op : ops) {
    batch.push_back(Op::Merge(op.reg, std::move(op.value), std::move(op.done)));
  }
  Submit(p, std::move(batch));
}

Expected<std::string> NadClient::QueryStats(DiskId d,
                                            std::chrono::milliseconds timeout) {
  // Blocking shim over a Submit STATS op: the op rides the same pending
  // table and expiry sweep as reads/writes (no bespoke waiter plumbing in
  // the transport), and this function just parks on the completion.
  struct Waiter {
    Mutex mu;
    CondVar cv;
    bool done GUARDED_BY(mu) = false;
    Expected<std::string> result GUARDED_BY(mu) =
        Status::Timeout("stats: no response before deadline");
  };
  auto waiter = std::make_shared<Waiter>();
  std::vector<Op> ops;
  ops.push_back(Op::Stats(d, [waiter](Expected<std::string> r) {
    MutexLock lock(waiter->mu);
    waiter->result = std::move(r);
    waiter->done = true;
    waiter->cv.NotifyAll();
  }));
  Submit(0, std::move(ops), OpOptions::WithDeadline(timeout));
  // Slack past the deadline: the expiry sweep itself answers kTimeout,
  // one wheel tick late at worst; the extra wait just covers scheduling.
  MutexLock lock(waiter->mu);
  waiter->cv.WaitFor(waiter->mu, timeout + std::chrono::milliseconds(100),
                     [&] {
                       waiter->mu.AssertHeld();  // predicates run locked
                       return waiter->done;
                     });
  return waiter->result;
}

// ---------------------------------------------------------------------------
// Loop-thread internals. Everything below runs on a connection's owning
// loop; connection state needs no locks (single-writer, DESIGN.md §12).
// ---------------------------------------------------------------------------

void NadClient::RegisterConn(Conn* conn) {
  if (Status st = conn->loop->Watch(conn->io.socket().fd(), conn); !st.ok()) {
    LOG_WARN << "nad-client: cannot watch disk " << conn->disk << ": "
             << st.ToString();
    OnLinkBroken(conn);
  }
}

void NadClient::Admit(std::vector<SubmitEntry> entries) {
  std::vector<Conn*> touched;
  for (SubmitEntry& e : entries) {
    Conn* c = e.conn;
    const bool stats_on_broken_link =
        e.op.kind == Op::Kind::kStats && c->link != Conn::Link::kUp;
    if (c->link == Conn::Link::kDown || stats_on_broken_link) {
      // Dead for good: the op can never be sent. Handler never runs
      // (crashed-register semantics); STATS fails fast instead — also
      // while the link is merely reconnecting, because the redial
      // rebuild retransmits only reads/writes (STATS probes die with
      // the link, per the header contract) and a stats op parked here
      // with no deadline would otherwise stay in flight forever.
      AddInFlight(-1);
      if (e.op.kind == Op::Kind::kStats && e.op.on_stats) {
        e.op.on_stats(Status::Unavailable("stats: connection down"));
      }
      continue;
    }
    // hot-path-begin(client-admit): staging must not copy the op's value
    // — it MOVES into a stable pending-table slot the wire references.
    const std::uint64_t id = c->next_request_id++;
    PendingOp* p = c->pending.Insert(id);
    p->start = e.start;
    p->expires = e.expires;
    p->reg = e.op.reg;
    if (e.op.kind == Op::Kind::kRead) {
      p->req_type = MsgType::kReadReq;
      p->on_read = std::move(e.op.on_read);
    } else if (e.op.kind == Op::Kind::kWrite ||
               e.op.kind == Op::Kind::kMerge) {
      p->req_type = e.op.kind == Op::Kind::kWrite ? MsgType::kWriteReq
                                                  : MsgType::kMergeReq;
      p->value = std::move(e.op.value);
      p->on_write = std::move(e.op.on_write);
    } else {
      p->req_type = MsgType::kStatsReq;
      p->on_stats = std::move(e.op.on_stats);
    }
    c->staged.push_back(id);
    // hot-path-end
    MaybeArmSweep(c, e.expires);
    if (!c->admit_queued) {
      c->admit_queued = true;
      touched.push_back(c);
    }
  }
  for (Conn* c : touched) {
    c->admit_queued = false;
    // Reads/writes staged while the link is down wait in the pending
    // table; the reconnect rebuild retransmits them (STATS never gets
    // here on a broken link — it failed kUnavailable above).
    if (c->link == Conn::Link::kUp) SendStaged(c);
  }
}

void NadClient::SendStaged(Conn* conn) {
  if (!conn->staged.empty()) {
    // One per-op frame per staged op, in FIFO order, all sent by the
    // same Flush: batching is the one writev, not a frame shape. Frames
    // are built as WireChunks — headers in the connection's arena, write
    // values referenced from their pending entries — never materialized.
    // hot-path-begin(client-framing)
    FrameWriter w = conn->io.Writer();
    std::size_t ops = 0;
    for (const std::uint64_t id : conn->staged) {
      PendingOp* p = conn->pending.Find(id);
      if (p == nullptr) continue;  // expired while the link was down
      if (p->req_type != MsgType::kStatsReq) ++ops;
      w.BeginFrame();
      AppendPayload(w, p->req_type, id, p->reg, p->value);
      w.EndFrame();
    }
    if (ops > 0) batch_size_->Observe(ops);
    conn->staged.clear();
    // hot-path-end
  }
  // A dead socket hands off to the reconnect path: the dropped frames
  // stay stashed in the pending table and will be retransmitted.
  if (conn->io.Flush() == FramedConn::Io::kClosed) OnLinkBroken(conn);
}

void NadClient::OnIoReady(Conn* conn, std::uint32_t events) {
  if (conn->link == Conn::Link::kConnecting) {
    if ((events & EventLoop::kError) ||
        ((events & EventLoop::kWritable) &&
         !FinishConnect(conn->io.socket()).ok())) {
      conn->loop->Unwatch(conn->io.socket().fd());
      conn->io.Reset();
      OnRedialFailed(conn);
    } else if (events & EventLoop::kWritable) {
      OnRedialConnected(conn);
    }
    return;
  }
  // A stale edge for an fd closed earlier in this epoll batch lands here
  // with the link already down; ignore it.
  if (conn->link != Conn::Link::kUp) return;
  if (events & EventLoop::kError) {
    OnLinkBroken(conn);
    return;
  }
  if (events & EventLoop::kPeerClosed) conn->io.MarkPeerClosed();
  // Edge-triggered: read until a short read empties the socket (or, once
  // the peer has closed, until the close), dispatching every complete
  // frame as it lands.
  // hot-path-begin(client-read)
  FramedConn::Io got = (events & EventLoop::kReadable)
                           ? FramedConn::Io::kMore
                           : FramedConn::Io::kDrained;
  while (got == FramedConn::Io::kMore) {
    got = conn->io.Fill();
    if (got == FramedConn::Io::kClosed) {
      OnLinkBroken(conn);
      return;
    }
    std::string_view payload;
    FramedConn::Frame next = conn->io.NextFrame(&payload);
    for (; next == FramedConn::Frame::kReady;
         next = conn->io.NextFrame(&payload)) {
      HandleFrame(conn, payload);
      // The frame is dispatched; the decode views into it are dead.
      conn->io.Consume(payload);
    }
    if (next == FramedConn::Frame::kBadLength) {
      LOG_WARN << "nad-client: disk " << conn->disk
               << " sent a frame longer than " << kMaxFrameBytes
               << " bytes; dropping the connection";
      OnLinkBroken(conn);
      return;
    }
  }
  // hot-path-end
  if ((events & EventLoop::kWritable) && conn->io.want_write() &&
      conn->io.Flush() == FramedConn::Io::kClosed) {
    OnLinkBroken(conn);
  }
}

void NadClient::HandleFrame(Conn* conn, std::string_view payload) {
  const auto now = Clock::now();
  auto decoded = DecodeMessageView(payload);
  if (!decoded) {
    LOG_WARN << "nad-client: malformed response: "
             << decoded.status().ToString();
    return;
  }
  // Any successfully received frame is proof of life: close the breaker
  // so suspicion clears as soon as the disk answers again.
  conn->breaker.RecordSuccess();
  conn->suspected_until_us.store(0, std::memory_order_relaxed);
  const MessageView& msg = *decoded;
  MsgType expect = MsgType::kReadReq;
  switch (msg.type) {
    case MsgType::kReadResp:
      expect = MsgType::kReadReq;
      break;
    case MsgType::kWriteResp:
      expect = MsgType::kWriteReq;
      break;
    case MsgType::kMergeResp:
      expect = MsgType::kMergeReq;
      break;
    case MsgType::kStatsResp:
      expect = MsgType::kStatsReq;
      break;
    case MsgType::kReadReq:
    case MsgType::kWriteReq:
    case MsgType::kMergeReq:
    case MsgType::kStatsReq:
      return;  // not a response opcode; ignore
  }
  // hot-path-begin(client-dispatch)
  PendingOp* entry = conn->pending.Find(msg.request_id);
  if (entry == nullptr || entry->req_type != expect) return;
  PendingOp op;
  conn->pending.Take(msg.request_id, &op);
  // A response for a write whose bytes are still queued can only come
  // from a confused or hostile server (an honest response proves the
  // frame was fully sent), but the queue must never dangle.
  conn->io.KeepAlive(std::move(op.value));
  AddInFlight(-1);
  if (msg.type == MsgType::kReadResp) {
    hotpath::CountCopy(msg.value.size());
    read_us_->ObserveSince(op.start);
    obs::EmitSpan("nad", "read", op.start, now);
    if (op.on_read) {
      // THE one hot-path copy: materializing the read's Value for its
      // handler, which owns it beyond this frame dispatch.
      op.on_read(Value(msg.value));  // lint-allow(hot-alloc): handler owns it
    }
  } else if (msg.type == MsgType::kWriteResp ||
             msg.type == MsgType::kMergeResp) {
    write_us_->ObserveSince(op.start);
    obs::EmitSpan("nad", msg.type == MsgType::kWriteResp ? "write" : "merge",
                  op.start, now);
    if (op.on_write) op.on_write();
  } else {
    if (op.on_stats) {
      // lint-allow(hot-alloc): STATS is out-of-band observability.
      op.on_stats(std::string(msg.value));
    }
  }
  // hot-path-end
}

void NadClient::OnLinkBroken(Conn* conn) {
  if (conn->link != Conn::Link::kUp) return;
  if (conn->io.socket().valid()) conn->loop->Unwatch(conn->io.socket().fd());
  conn->io.Reset();
  conn->staged.clear();
  // STATS probes die with the link: observability reads have no
  // pending-write semantics to preserve, so they fail fast instead of
  // being retransmitted. Handlers are collected first and run after the
  // table is consistent (they may re-enter Submit).
  std::vector<StatsHandler> dead_stats;
  conn->pending.EraseIf([&](std::uint64_t, PendingOp& p) {
    if (p.req_type != MsgType::kStatsReq) return false;
    dead_stats.push_back(std::move(p.on_stats));
    return true;
  });
  if (!dead_stats.empty()) {
    AddInFlight(-static_cast<std::int64_t>(dead_stats.size()));
  }
  for (StatsHandler& handler : dead_stats) {
    if (handler) handler(Status::Unavailable("stats: connection lost"));
  }
  conn->link = Conn::Link::kBackoff;
  ScheduleRedial(conn);
}

void NadClient::OnLoopDead(EventLoop* loop) {
  // Runs on the dying loop thread (its last act), so the single-writer
  // rule still holds. Nothing will ever run on this loop again — no io,
  // no sweeps, no redials — so unlike OnLinkBroken the pending
  // reads/writes cannot be parked for retransmission or expiry: their
  // handlers are destroyed unrun (crashed-register semantics) and the
  // in-flight count drops with them so the gauge stays truthful.
  for (auto& [disk, owned] : conns_) {
    Conn* conn = owned.get();
    if (conn->loop != loop) continue;
    if (conn->io.socket().valid()) loop->Unwatch(conn->io.socket().fd());
    conn->io.Reset();
    conn->link = Conn::Link::kDown;
    conn->suspected_until_us.store(kSuspectForever, std::memory_order_relaxed);
    conn->staged.clear();
    const std::size_t n = conn->pending.size();
    std::vector<StatsHandler> dead_stats;
    conn->pending.ForEach([&](std::uint64_t, PendingOp& p) {
      if (p.req_type == MsgType::kStatsReq) {
        dead_stats.push_back(std::move(p.on_stats));
      }
    });
    conn->pending.Clear();
    if (n > 0) AddInFlight(-static_cast<std::int64_t>(n));
    for (StatsHandler& handler : dead_stats) {
      if (handler) handler(Status::Unavailable("stats: event loop died"));
    }
  }
}

void NadClient::ScheduleRedial(Conn* conn) {
  // Capped exponential backoff with jitter, as a wheel timer — the
  // loop stays responsive for its other connections while this one
  // waits (the old code parked a dedicated sender thread in a CondVar).
  const auto delay = conn->backoff.Next(conn->rng);
  conn->redial_timer =
      conn->loop->timers().Schedule(Clock::now() + delay, [this, conn] {
        conn->redial_timer = 0;
        StartRedial(conn);
      });
}

void NadClient::StartRedial(Conn* conn) {
  if (conn->link != Conn::Link::kBackoff) return;
  bool connected = false;
  auto sock = StartConnect(conn->endpoint.host, conn->endpoint.port,
                           &connected);
  if (!sock) {
    OnRedialFailed(conn);
    return;
  }
  conn->io.Reset(std::move(*sock));
  if (Status st = conn->loop->Watch(conn->io.socket().fd(), conn); !st.ok()) {
    LOG_WARN << "nad-client: cannot watch disk " << conn->disk << ": "
             << st.ToString();
    conn->io.Reset();
    OnRedialFailed(conn);
    return;
  }
  conn->link = Conn::Link::kConnecting;
  if (connected) OnRedialConnected(conn);
  // Otherwise the handshake resolves on the next EPOLLOUT/EPOLLERR edge.
}

void NadClient::OnRedialFailed(Conn* conn) {
  reconnect_failures_->Inc();
  RecordBreakerFailure(conn, Clock::now());
  conn->link = Conn::Link::kBackoff;
  ScheduleRedial(conn);  // still broken; retry with a longer delay
}

void NadClient::OnRedialConnected(Conn* conn) {
  conn->link = Conn::Link::kUp;
  conn->backoff.Reset();
  conn->breaker.RecordSuccess();
  conn->suspected_until_us.store(0, std::memory_order_relaxed);
  reconnects_->Inc();
  // Retransmit everything still pending, oldest first (ids are monotone,
  // so sorting ids restores issue order). Requests that were served but
  // whose response was lost get applied again — an idempotent replay of
  // a still-pending op (see the class comment). Frames are rebuilt from
  // the pending table, so anything staged before the break (already
  // covered by the table) is dropped first rather than sent twice; the
  // redial started on a fresh FramedConn, so nothing is queued. Only
  // reads/writes can be pending here: STATS died with the link and Admit
  // fails new ones fast until the link is back up.
  conn->staged.clear();
  conn->staged.reserve(conn->pending.size());
  conn->pending.ForEach([&](std::uint64_t id, PendingOp&) {
    conn->staged.push_back(id);
  });
  std::sort(conn->staged.begin(), conn->staged.end());
  if (!conn->staged.empty()) {
    retries_->Inc(conn->staged.size());
  }
  SendStaged(conn);
}

void NadClient::MaybeArmSweep(Conn* conn,
                              std::chrono::steady_clock::time_point at) {
  if (at == Clock::time_point::max()) return;
  if (conn->sweep_timer != 0) {
    if (conn->sweep_deadline <= at) return;  // an earlier sweep covers it
    conn->loop->timers().Cancel(conn->sweep_timer);
  }
  conn->sweep_deadline = at;
  conn->sweep_timer = conn->loop->timers().Schedule(at, [this, conn] {
    conn->sweep_timer = 0;
    Sweep(conn);
  });
}

void NadClient::Sweep(Conn* conn) {
  const auto now = Clock::now();
  // Handlers are collected first and invoked/destroyed after the table
  // is consistent: dropping one can release ticket state whose
  // destructor may re-enter Submit.
  std::vector<ReadHandler> dead_reads;
  std::vector<WriteHandler> dead_writes;
  std::vector<StatsHandler> timed_out_stats;
  auto next = Clock::time_point::max();
  // An expired write's bytes may still sit unsent in the send queue,
  // whose chunks reference the entry's value: KeepAlive keeps the queue
  // sound though the table slot is recycled.
  conn->pending.EraseIf([&](std::uint64_t, PendingOp& p) {
    if (p.expires > now) {
      next = std::min(next, p.expires);
      return false;
    }
    switch (p.req_type) {
      case MsgType::kReadReq:
        dead_reads.push_back(std::move(p.on_read));
        break;
      case MsgType::kWriteReq:
      case MsgType::kMergeReq:
        dead_writes.push_back(std::move(p.on_write));
        conn->io.KeepAlive(std::move(p.value));
        break;
      case MsgType::kStatsReq:
      case MsgType::kReadResp:
      case MsgType::kWriteResp:
      case MsgType::kMergeResp:
      case MsgType::kStatsResp:
        // Only the four request opcodes are ever pending; the rest are
        // unreachable, named for the exhaustiveness lint.
        timed_out_stats.push_back(std::move(p.on_stats));
        break;
    }
    return true;
  });
  const std::size_t n =
      dead_reads.size() + dead_writes.size() + timed_out_stats.size();
  if (n > 0) {
    AddInFlight(-static_cast<std::int64_t>(n));
    expired_->Inc(n);
    // Expiries are failure evidence: the disk accepted a connection but
    // did not answer in time (stalled / dropping / crashed).
    RecordBreakerFailure(conn, now);
  }
  MaybeArmSweep(conn, next);
  for (StatsHandler& handler : timed_out_stats) {
    if (handler) handler(Status::Timeout("stats: no response before deadline"));
  }
  // Expired read/write handlers are destroyed unrun here —
  // crashed-register semantics (an expired-but-sent write is a textbook
  // pending write).
}

void NadClient::RecordBreakerFailure(Conn* conn,
                                     std::chrono::steady_clock::time_point now) {
  // Let an elapsed cooldown half-open the breaker first (the old code
  // relied on IsSuspectedCrashed callers to drive that transition), then
  // record the failure and publish the resulting suspicion window.
  (void)conn->breaker.AllowRequest(now);
  if (conn->breaker.RecordFailure(now)) breaker_open_->Inc();
  PublishSuspicion(conn, now);
}

void NadClient::PublishSuspicion(Conn* conn,
                                 std::chrono::steady_clock::time_point now) {
  if (conn->link == Conn::Link::kDown) {
    conn->suspected_until_us.store(kSuspectForever, std::memory_order_relaxed);
    return;
  }
  if (conn->breaker.state() == CircuitBreaker::State::kOpen) {
    // RecordFailure stamps opened_at_ = now while open, so the window is
    // exactly one cooldown from the latest failure.
    conn->suspected_until_us.store(ToUs(now + options_.retry.breaker_cooldown),
                                   std::memory_order_relaxed);
  } else {
    conn->suspected_until_us.store(0, std::memory_order_relaxed);
  }
}

}  // namespace nadreg::nad
