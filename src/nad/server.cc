#include "nad/server.h"

#include <chrono>

#include "common/hotpath_stats.h"
#include "common/log.h"
#include "nad/protocol.h"

namespace nadreg::nad {

Expected<std::unique_ptr<NadServer>> NadServer::Start(Options opts) {
  auto listener = Listener::Bind(opts.port, opts.host);
  if (!listener) return listener.status();
  // Cannot use make_unique: the constructor is private.
  std::unique_ptr<NadServer> server(new NadServer(opts));
  if (!opts.data_path.empty()) {
    sim::RegisterStore recovered_store;
    auto recovered = RecoverState(opts.data_path, &recovered_store);
    if (!recovered.ok()) return recovered.status();
    server->store_.Load(recovered_store);
    server->recovered_ = *recovered;
    // Still single-threaded here; the lock only satisfies the guard.
    MutexLock jlock(server->journal_mu_);
    if (Status s = server->journal_.Open(opts.data_path + ".log"); !s.ok()) {
      return s;
    }
  }
  server->port_ = listener->port();
  server->listener_ = std::make_unique<Listener>(std::move(*listener));
  server->accept_thread_ = std::jthread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

NadServer::NadServer(Options opts)
    : opts_(opts),
      rng_(opts.seed),
      reads_served_(&metrics_.GetCounter("nad.server.reads")),
      writes_served_(&metrics_.GetCounter("nad.server.writes")),
      merges_served_(&metrics_.GetCounter("nad.server.merges")),
      dropped_crashed_(&metrics_.GetCounter("nad.server.dropped_crashed")),
      dropped_faulted_(&metrics_.GetCounter("nad.server.dropped_faulted")),
      read_serve_us_(&metrics_.GetHistogram("nad.server.read_serve_us")),
      write_serve_us_(&metrics_.GetHistogram("nad.server.write_serve_us")),
      batch_size_(&metrics_.GetHistogram("nad.server.batch_size")) {}

NadServer::~NadServer() { Stop(); }

void NadServer::Stop() {
  {
    MutexLock lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    for (Socket* conn : live_conns_) conn->Shutdown();
  }
  fault_cv_.NotifyAll();  // release any connection held by a stall
  if (listener_) listener_->Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  conn_threads_.clear();  // joins
}

void NadServer::CrashRegister(const RegisterId& r) { store_.CrashRegister(r); }

void NadServer::CrashDisk(DiskId d) { store_.CrashDisk(d); }

void NadServer::DelayDisk(DiskId /*d*/, std::uint64_t min_us,
                          std::uint64_t max_us) {
  delay_min_override_.store(min_us, std::memory_order_relaxed);
  delay_max_override_.store(max_us, std::memory_order_relaxed);
}

void NadServer::DropRequests(DiskId /*d*/, std::uint32_t permille) {
  drop_permille_.store(permille, std::memory_order_relaxed);
}

void NadServer::DisconnectDisk(DiskId /*d*/) {
  // Sever every established connection but keep listening: unlike a
  // crash this is recoverable — a reconnecting client resumes.
  MutexLock lock(mu_);
  for (Socket* conn : live_conns_) conn->Shutdown();
}

void NadServer::StallDisk(DiskId /*d*/, std::chrono::milliseconds dur) {
  MutexLock lock(mu_);
  const auto until = std::chrono::steady_clock::now() + dur;
  if (until > stall_until_) stall_until_ = until;
}

void NadServer::Heal(DiskId /*d*/) {
  delay_min_override_.store(kNoDelayOverride, std::memory_order_relaxed);
  delay_max_override_.store(kNoDelayOverride, std::memory_order_relaxed);
  drop_permille_.store(0, std::memory_order_relaxed);
  {
    MutexLock lock(mu_);
    stall_until_ = std::chrono::steady_clock::time_point{};
  }
  fault_cv_.NotifyAll();  // release requests held by a cleared stall
}

Status NadServer::Checkpoint() {
  {
    MutexLock jlock(journal_mu_);
    if (!journal_.IsOpen()) return Status::Ok();  // volatile server
  }
  // Quiesce every stripe so no write can journal between the snapshot
  // and the journal truncation (it would be lost on recovery). Lock
  // order matches the write path: stripes first, then the journal.
  auto stripes = store_.LockAll();
  MutexLock jlock(journal_mu_);
  if (Status s = WriteCheckpoint(opts_.data_path, stripes.Snapshot());
      !s.ok()) {
    return s;
  }
  return journal_.Reset();
}

std::uint64_t NadServer::ServedCount() const {
  return served_.load(std::memory_order_relaxed);
}

void NadServer::AcceptLoop() {
  for (;;) {
    auto conn = listener_->Accept();
    if (!conn) return;  // listener shut down
    MutexLock lock(mu_);
    if (stopping_) return;
    Rng conn_rng = rng_.Fork();
    conn_threads_.emplace_back(
        [this, c = std::move(*conn), r = conn_rng]() mutable {
          Serve(std::move(c), r);
        });
  }
}

bool NadServer::ServeOpView(const MessageView& msg, FrameWriter* w) {
  const auto serve_start = std::chrono::steady_clock::now();
  // hot-path-begin(server-op)
  if (store_.IsCrashed(msg.reg)) {
    // Unresponsive failure mode: swallow the request. The client can
    // never distinguish this from a slow disk.
    dropped_crashed_->Inc();
    return false;
  }
  MsgType resp = MsgType::kReadResp;
  std::string_view value;  // ReadResp only
  if (msg.type == MsgType::kWriteReq || msg.type == MsgType::kMergeReq) {
    // Write-ahead: a write is journaled before it is acknowledged, so a
    // restart never forgets an acknowledged write. Journal order and
    // apply order agree per register (both under the stripe lock). The
    // value (or merge delta) is a view into the receive buffer the whole
    // way down. A merge journals the POST-merge cell, so replay is a
    // plain Apply.
    const auto write_ahead = [&](std::string_view v) {
      // Stripe lock is held here; journal_mu_ nests inside it (the
      // documented stripe -> journal order, same as Checkpoint).
      MutexLock jlock(journal_mu_);
      if (!journal_.IsOpen()) return true;
      if (Status s = journal_.Append(msg.reg, v); !s.ok()) {
        LOG_ERROR << "nad-server: journal append failed: " << s.ToString()
                  << "; dropping request";
        return false;
      }
      return true;
    };
    const bool write = msg.type == MsgType::kWriteReq;
    const bool applied =
        write ? store_.ApplyOrderedView(msg.reg, msg.value, write_ahead)
              : store_.MergeOrderedView(msg.reg, msg.value, write_ahead);
    if (!applied) return false;  // unresponsive, like a failing disk
    if (write) {
      // The store assigned the value into the register's existing string
      // capacity: the one write-path copy.
      hotpath::CountCopy(msg.value.size());
      writes_served_->Inc();
    } else {
      merges_served_->Inc();
    }
    write_serve_us_->ObserveSince(serve_start);
    resp = write ? MsgType::kWriteResp : MsgType::kMergeResp;
  } else {
    // Copy the value out of the store into the response arena under the
    // stripe lock (linearization) — the one read-path copy; the response
    // frame references the arena bytes, never a fresh Value.
    store_.View(msg.reg, [&](const Value& v) {
      hotpath::CountCopy(v.size());
      value = std::string_view(w->arena()->Copy(v.data(), v.size()), v.size());
    });
    reads_served_->Inc();
    read_serve_us_->ObserveSince(serve_start);
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

bool NadServer::FaultFilter(Rng& rng, bool* drop) {
  // A stalled daemon HOLDS the burst until the stall elapses.
  {
    mu_.Lock();
    while (!stopping_ && stall_until_ > std::chrono::steady_clock::now()) {
      const auto until = stall_until_;
      fault_cv_.WaitUntil(mu_, until, [&] {
        mu_.AssertHeld();  // CondVar waits run predicates under the lock
        return stopping_ || stall_until_ < until;  // Heal cleared it
      });
    }
    const bool stop_now = stopping_;
    mu_.Unlock();
    if (stop_now) return false;
  }
  // A lossy daemon DROPS it.
  const auto drop_permille = drop_permille_.load(std::memory_order_relaxed);
  *drop = drop_permille > 0 && rng.Chance(drop_permille, 1000);
  if (*drop) return true;
  std::uint64_t min_delay = opts_.min_delay_us;
  std::uint64_t max_delay = opts_.max_delay_us;
  if (const auto omax = delay_max_override_.load(std::memory_order_relaxed);
      omax != kNoDelayOverride) {
    min_delay = delay_min_override_.load(std::memory_order_relaxed);
    max_delay = omax;
  }
  if (max_delay > 0) {
    // A burst is one disk request: one vectored operation.
    std::this_thread::sleep_for(
        std::chrono::microseconds(rng.Between(min_delay, max_delay)));
  }
  return true;
}

void NadServer::Serve(Socket conn, Rng rng) {
  {
    MutexLock lock(mu_);
    if (stopping_) return;
    live_conns_.push_back(&conn);
  }
  // Per-connection serve state (DESIGN.md §14): frames are read through
  // `reader` (one recv can deliver many frames), decoded into views over
  // its buffer, and answered as WireChunks — headers and read values in
  // `arena`. A burst is the frame recv blocked for plus every complete
  // frame already buffered behind it; its responses leave with one
  // sendmsg, and the arena and chunk list reset per burst.
  FrameReader reader;
  Arena arena;
  std::vector<WireChunk> chunks;
  std::vector<iovec> iov;
  const auto send_chunks = [&conn, &chunks, &iov]() -> bool {
    if (chunks.empty()) return true;
    iov.clear();
    for (const WireChunk& c : chunks) {
      iov.push_back(iovec{const_cast<char*>(c.data), c.len});
    }
    chunks.clear();
    return SendAllVec(conn, iov.data(), iov.size()).ok();
  };
  FrameWriter w(&arena, &chunks);
  bool filtered = false;  // the fault filter has run for this burst
  bool drop = false;      // ... and dropped it
  std::size_t burst_ops = 0;
  for (;;) {
    auto payload = reader.Next(conn, kMaxFrameBytes);
    if (!payload) break;  // closed or malformed length
    // hot-path-begin(server-serve)
    auto msg = DecodeMessageView(*payload);
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
    } else {
      if (!filtered) {
        // Fault filter, once per burst before its first disk op. STATS
        // answers already queued leave first: a stall must not hold them.
        filtered = true;
        if (!send_chunks() || !FaultFilter(rng, &drop)) break;
      }
      if (drop) {
        dropped_faulted_->Inc();
      } else {
        // A crashed register omits its response; its neighbours answer.
        ServeOpView(*msg, &w);
        ++burst_ops;
      }
    }
    // The burst goes on while complete frames are already buffered, up
    // to about a frame's worth of response bytes.
    if (reader.HasFrame() && arena.bytes_used() < kMaxFrameBytes) continue;
    if (burst_ops > 0) batch_size_->Observe(burst_ops);
    // A burst whose every op was swallowed stays silent.
    if (!send_chunks()) break;
    arena.Reset();
    filtered = drop = false;
    burst_ops = 0;
    // hot-path-end
  }
  MutexLock lock(mu_);
  std::erase(live_conns_, &conn);
}

}  // namespace nadreg::nad
