#include "nad/server.h"

#include <algorithm>

#include "common/coded_cell.h"
#include "common/hotpath_stats.h"
#include "common/log.h"

namespace nadreg::nad {
namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

/// One client connection; loop-confined like the rest of the daemon.
struct NadServer::Conn final : EventLoop::IoWatcher {
  /// Where the current burst stands in the fault filter.
  enum class Filter : std::uint8_t { kPending, kServe, kDrop };

  Conn(NadServer* s, Socket so, Rng r)
      : server(s), io(std::move(so)), rng(r) {}

  void OnIoReady(std::uint32_t events) override {
    server->OnConnReady(this, events);
  }
  bool parked() const { return io.want_write() || hold_timer != 0; }

  NadServer* server;
  /// The socket, the request bytes, and the burst's queued responses.
  FramedConn io;
  Rng rng;  // drop and delay rolls
  std::uint64_t hold_timer = 0;  // parked on a fault timer (wheel id)
  Filter filter = Filter::kPending;
};

Expected<std::unique_ptr<NadServer>> NadServer::Start(Options opts) {
  auto listener = Listener::Bind(opts.port, opts.host);
  if (!listener) return listener.status();
  if (Status s = SetNonBlocking(listener->socket()); !s.ok()) return s;
  auto loop = EventLoop::Create();
  if (!loop) return loop.status();
  // Cannot use make_unique: the constructor is private.
  std::unique_ptr<NadServer> server(new NadServer(std::move(opts)));
  const std::string& data_path = server->opts_.data_path;
  if (!data_path.empty()) {
    auto recovered = RecoverState(data_path, &server->store_);
    if (!recovered.ok()) return recovered.status();
    server->recovered_ = *recovered;
    if (Status s = server->journal_.Open(data_path + ".log"); !s.ok()) {
      return s;
    }
  }
  server->port_ = listener->port();
  server->listener_ = std::make_unique<Listener>(std::move(*listener));
  server->loop_ = std::move(*loop);
  // The loop thread does not exist yet, so nothing races this Watch.
  if (Status s = server->loop_->Watch(server->listener_->socket().fd(),
                                      server.get());
      !s.ok()) {
    return s;
  }
  server->loop_->Start();
  return server;
}

NadServer::NadServer(Options opts)
    : opts_(std::move(opts)),
      rng_(opts_.seed),
      delay_min_us_(opts_.min_delay_us),
      delay_max_us_(opts_.max_delay_us),
      reads_served_(&metrics_.GetCounter("nad.server.reads")),
      writes_served_(&metrics_.GetCounter("nad.server.writes")),
      merges_served_(&metrics_.GetCounter("nad.server.merges")),
      dropped_crashed_(&metrics_.GetCounter("nad.server.dropped_crashed")),
      dropped_faulted_(&metrics_.GetCounter("nad.server.dropped_faulted")),
      journal_failures_(&metrics_.GetCounter("nad.server.journal_failures")),
      read_serve_us_(&metrics_.GetHistogram("nad.server.read_serve_us")),
      write_serve_us_(&metrics_.GetHistogram("nad.server.write_serve_us")),
      batch_size_(&metrics_.GetHistogram("nad.server.batch_size")) {}

NadServer::~NadServer() { Stop(); }

void NadServer::Stop() {
  if (stopped_.exchange(true)) return;
  if (loop_) {
    loop_->Stop();
    loop_->Join();
  }
  // The loop thread is gone; this thread owns the state now.
  conns_.clear();
  closed_.clear();
  listener_.reset();
}

void NadServer::CrashRegister(const RegisterId& r) {
  loop_->RunAndWait([&] { store_.CrashRegister(r); });
}

void NadServer::CrashDisk(DiskId d) {
  loop_->RunAndWait([&] { store_.CrashDisk(d); });
}

void NadServer::DelayDisk(DiskId /*d*/, std::uint64_t min_us,
                          std::uint64_t max_us) {
  loop_->RunAndWait([&] {
    delay_min_us_ = min_us;
    delay_max_us_ = max_us;
  });
}

void NadServer::DropRequests(DiskId /*d*/, std::uint32_t permille) {
  loop_->RunAndWait([&] { drop_permille_ = permille; });
}

void NadServer::DisconnectDisk(DiskId /*d*/) {
  // Close every established connection but keep listening: unlike a
  // crash this is recoverable — a reconnecting client resumes.
  loop_->RunAndWait([&] {
    while (!conns_.empty()) Close(conns_.back().get());
  });
}

void NadServer::StallDisk(DiskId /*d*/, std::chrono::milliseconds dur) {
  const auto until = Clock::now() + dur;
  loop_->RunAndWait([&] { stall_until_ = std::max(stall_until_, until); });
}

void NadServer::Heal(DiskId /*d*/) {
  loop_->RunAndWait([&] {
    delay_min_us_ = opts_.min_delay_us;
    delay_max_us_ = opts_.max_delay_us;
    drop_permille_ = 0;
    stall_until_ = {};
    // Resume every held burst. Pump may close its own connection, so
    // collect first.
    std::vector<Conn*> held;
    for (const auto& c : conns_) {
      if (c->hold_timer == 0) continue;
      loop_->timers().Cancel(c->hold_timer);
      c->hold_timer = 0;
      held.push_back(c.get());
    }
    for (Conn* c : held) Pump(c);
  });
}

Status NadServer::Checkpoint() {
  // On the loop, between bursts: no write can journal between the
  // snapshot and the journal truncation.
  Status result = Status::Unavailable("nad-server: stopped");
  loop_->RunAndWait([&] {
    if (!journal_.IsOpen()) {
      result = Status::Ok();  // volatile server
      return;
    }
    result = WriteCheckpoint(opts_.data_path, store_);
    if (result.ok()) result = journal_.Reset();
  });
  return result;
}

std::uint64_t NadServer::ServedCount() const {
  return served_.load(std::memory_order_relaxed);
}

void NadServer::OnIoReady(std::uint32_t /*events*/) {
  // Edge-triggered listener: accept until none is pending.
  for (;;) {
    auto sock = listener_->Accept();
    if (!sock) return;
    if (!SetNonBlocking(*sock).ok()) continue;
    auto conn = std::make_unique<Conn>(this, std::move(*sock), rng_.Fork());
    if (!loop_->Watch(conn->io.socket().fd(), conn.get()).ok()) continue;
    conns_.push_back(std::move(conn));
  }
}

void NadServer::OnConnReady(Conn* c, std::uint32_t events) {
  // A stale edge for a connection closed earlier in this epoll batch.
  if (!c->io.socket().valid()) return;
  if (events & EventLoop::kError) {
    Close(c);
    return;
  }
  if (events & EventLoop::kPeerClosed) c->io.MarkPeerClosed();
  bool pump = (events & EventLoop::kReadable) != 0;
  if ((events & EventLoop::kWritable) && c->io.want_write()) {
    const FramedConn::Io sent = c->io.Flush();
    if (sent == FramedConn::Io::kClosed) Close(c);
    if (sent != FramedConn::Io::kDrained) return;  // still backed up
    pump = true;  // serve what the full send buffer held back
  }
  if (pump) Pump(c);
}

void NadServer::Pump(Conn* c) {
  FramedConn::Io got = FramedConn::Io::kMore;
  while (!c->parked()) {
    const BurstEnd end = ServeBurst(c);
    if (end == BurstEnd::kBadFrame) {
      Close(c);
      return;
    }
    // Queued answers leave even when the burst is held: a stall must
    // not hold STATS.
    const FramedConn::Io sent = c->io.Flush();
    if (sent == FramedConn::Io::kClosed) {
      Close(c);
      return;
    }
    if (sent == FramedConn::Io::kParked || end == BurstEnd::kHeld) return;
    if (end == BurstEnd::kFull) continue;
    if (got == FramedConn::Io::kDrained) return;
    got = c->io.Fill();
    if (got == FramedConn::Io::kClosed) {
      Close(c);  // peer closed, or a socket error
      return;
    }
  }
}

NadServer::BurstEnd NadServer::ServeBurst(Conn* c) {
  // hot-path-begin(server-serve)
  FrameWriter w = c->io.Writer();
  std::size_t ops = 0;
  BurstEnd end = BurstEnd::kDrained;
  std::string_view payload;
  for (;;) {
    const FramedConn::Frame next = c->io.NextFrame(&payload);
    if (next == FramedConn::Frame::kNone) break;
    if (next == FramedConn::Frame::kBadLength) {
      end = BurstEnd::kBadFrame;
      break;
    }
    // About a frame's worth of responses ends the burst early.
    if (w.arena()->bytes_used() >= kMaxFrameBytes) {
      end = BurstEnd::kFull;
      break;
    }
    auto msg = DecodeMessageView(payload);
    if (!msg) {
      LOG_WARN << "nad-server: dropping malformed request: "
               << msg.status().ToString();
    } else if (msg->type == MsgType::kStatsReq) {
      // Out-of-band observability: no fault filter, no crash check —
      // STATS is not a disk operation.
      AppendStats(msg->request_id, &w);
    } else if (msg->type != MsgType::kReadReq &&
               msg->type != MsgType::kWriteReq &&
               msg->type != MsgType::kMergeReq) {
      LOG_WARN << "nad-server: dropping non-request message";
    } else if (c->filter == Conn::Filter::kPending && !FaultFilter(c)) {
      end = BurstEnd::kHeld;
      break;  // the frame stays buffered until the hold ends
    } else if (c->filter == Conn::Filter::kDrop) {
      dropped_faulted_->Inc();
    } else {
      // A crashed register omits its response; its neighbours answer.
      ServeOpView(*msg, &w);
      ++ops;
    }
    // The frame is served; the decode views into the buffer are dead.
    c->io.Consume(payload);
  }
  if (ops > 0) batch_size_->Observe(ops);
  if (end != BurstEnd::kHeld) c->filter = Conn::Filter::kPending;
  return end;
  // hot-path-end
}

bool NadServer::FaultFilter(Conn* c) {
  const auto now = Clock::now();
  if (stall_until_ > now) {
    // A stalled daemon HOLDS the burst, then filters it afresh.
    Hold(c, stall_until_);
    return false;
  }
  // A lossy daemon DROPS it.
  if (drop_permille_ > 0 && c->rng.Chance(drop_permille_, 1000)) {
    c->filter = Conn::Filter::kDrop;
    return true;
  }
  c->filter = Conn::Filter::kServe;
  if (delay_max_us_ == 0) return true;
  // A burst is one disk request: one vectored operation, delayed once.
  const std::uint64_t delay_us = c->rng.Between(delay_min_us_, delay_max_us_);
  if (delay_us == 0) return true;
  Hold(c, now + std::chrono::microseconds(delay_us));
  return false;
}

void NadServer::Hold(Conn* c, Clock::time_point until) {
  c->hold_timer = loop_->timers().Schedule(until, [this, c] {
    c->hold_timer = 0;
    Pump(c);
  });
}

void NadServer::Close(Conn* c) {
  if (c->hold_timer != 0) loop_->timers().Cancel(c->hold_timer);
  c->hold_timer = 0;
  loop_->Unwatch(c->io.socket().fd());
  c->io.Reset();
  const auto it = std::find_if(
      conns_.begin(), conns_.end(),
      [c](const std::unique_ptr<Conn>& p) { return p.get() == c; });
  // The current epoll batch may still name `c`: free it next iteration.
  if (closed_.empty()) loop_->Post([this] { closed_.clear(); });
  closed_.push_back(std::move(*it));
  conns_.erase(it);
}

bool NadServer::ServeOpView(const MessageView& msg, FrameWriter* w) {
  const auto serve_start = Clock::now();
  // hot-path-begin(server-op)
  if (store_.IsCrashed(msg.reg)) {
    // Unresponsive failure mode: swallow the request. The client can
    // never distinguish this from a slow disk.
    dropped_crashed_->Inc();
    return false;
  }
  MsgType resp = MsgType::kReadResp;
  std::string_view value;  // ReadResp only
  if (msg.type == MsgType::kReadReq) {
    // Copy the value out of the store into the response arena — the one
    // read-path copy; the response frame references the arena bytes.
    const Value& v = store_.Get(msg.reg);
    hotpath::CountCopy(v.size());
    value = std::string_view(w->arena()->Copy(v.data(), v.size()), v.size());
    reads_served_->Inc();
    read_serve_us_->ObserveSince(serve_start);
  } else {
    // Write-ahead: a write is journaled before it is applied and
    // acknowledged, so a restart never forgets an acknowledged write.
    // The value (or merge delta) is a view into the receive buffer the
    // whole way down. A merge journals its delta, or the tag-only commit
    // the merge reports in its place, and replay re-runs the merge.
    const bool write = msg.type == MsgType::kWriteReq;
    Value merged;
    if (!write) {
      merged = MergeCodedCell(store_.Get(msg.reg), msg.value,
                              journal_.IsOpen() ? &tag_only_ : nullptr);
    }
    if (journal_.IsOpen()) {
      const Status s =
          write ? journal_.Append(msg.reg, msg.value)
                : journal_.Append(
                      msg.reg, tag_only_.empty() ? msg.value : tag_only_,
                      RecordKind::kCodedDelta);
      if (!s.ok()) {
        journal_failures_->Inc();
        LOG_ERROR << "nad-server: journal append failed: " << s.ToString()
                  << "; dropping request";
        return false;  // unresponsive, like a failing disk
      }
    }
    if (write) {
      // Assigned into the register's existing string capacity: the one
      // write-path copy.
      store_.Assign(msg.reg, msg.value);
      hotpath::CountCopy(msg.value.size());
      writes_served_->Inc();
    } else {
      store_.Apply(msg.reg, std::move(merged));
      merges_served_->Inc();
    }
    write_serve_us_->ObserveSince(serve_start);
    resp = write ? MsgType::kWriteResp : MsgType::kMergeResp;
  }
  w->BeginFrame();
  AppendPayload(*w, resp, msg.request_id, msg.reg, value);
  w->EndFrame();
  served_.fetch_add(1, std::memory_order_relaxed);
  return true;
  // hot-path-end
}

void NadServer::AppendStats(std::uint64_t request_id, FrameWriter* w) {
  std::string text = metrics_.ToText();
  text += "counter nad.server.served " + std::to_string(ServedCount()) + "\n";
  text += "counter nad.server.recovered " + std::to_string(recovered_) + "\n";
  // The text dies with this call; the burst's arena outlives the send.
  const std::string_view copy(w->arena()->Copy(text.data(), text.size()),
                              text.size());
  w->BeginFrame();
  AppendPayload(*w, MsgType::kStatsResp, request_id, {}, copy);
  w->EndFrame();
}

}  // namespace nadreg::nad
