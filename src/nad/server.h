/// \file
/// TCP network-attached disk daemon.
///
/// Serves read-block / write-block requests for any number of disks over
/// TCP, one frame-oriented connection per client. Matches the paper's NAD
/// model: per-connection requests are served in FIFO order (a disk queue);
/// an optional artificial service delay models a slow disk; a crashed
/// register or disk silently stops answering (unresponsive mode) — the
/// request is swallowed, never errored.
///
/// One disk, one loop: the daemon is one EventLoop thread. The listener
/// and every connection are IoWatchers on it, and the loop owns all
/// daemon state — the RegisterStore, the journal, the fault state, every
/// connection buffer — so none of it is locked. A write is journaled and
/// then applied inline, which makes write-ahead order hold trivially.
///
/// Bursts: every frame carries one operation (protocol.h), and batching
/// is a syscall property. Each connection moves its bytes through a
/// FramedConn (protocol.h), the connection core the client shares; the
/// daemon keeps only its fault-filter state beside it. A readable
/// connection is filled from the socket; every complete buffered frame is
/// then served as one *burst*, answered in FIFO order with one sendmsg.
/// A short read ends the drain without a trailing EAGAIN recv, on both
/// sides of the link. A crashed register's
/// response is simply omitted from the burst while its neighbours answer;
/// a burst whose every op is swallowed sends nothing.
/// "nad.server.batch_size" counts the ops of each burst. A send the
/// kernel takes only in part parks that connection until EPOLLOUT; the
/// loop keeps serving the others meanwhile.
///
/// Fault injection: the daemon is a faults::FaultSink, so a FaultInjector
/// can drive it like a simulated farm. The crash faults mark the store
/// (permanent, the paper's model); the transport faults are a *fault
/// filter* applied once per burst before its first disk op — a stalled
/// daemon parks the burst on a wheel timer until the stall elapses, a
/// lossy daemon drops each burst with the configured probability, a
/// delay parks the burst for the service delay, DisconnectDisk closes all
/// established connections (the daemon keeps listening, so reconnecting
/// clients recover), and Heal clears every recoverable fault and resumes
/// the parked bursts. The loop never sleeps. Delays round up to the
/// wheel's 1 ms tick, so a sub-millisecond delay lasts about 1 ms. One
/// daemon is one fault domain: the DiskId arguments of the transport
/// faults are ignored. STATS is exempt from the filter: it is
/// observability, not a disk operation.
///
/// Cross-thread calls: the FaultSink methods and Checkpoint() run on the
/// loop through EventLoop::RunAndWait, so each has taken effect when it
/// returns; after Stop() they do nothing (Checkpoint reports
/// kUnavailable). ServedCount() and metrics() are lock-free.
///
/// Memory discipline (DESIGN.md §14): the serve path is zero-copy end to
/// end. Frames are decoded into MessageViews over the connection's
/// receive buffer and answered through a FrameWriter into the
/// connection's queue arena, gathered out with one sendmsg — write values are journaled and
/// applied straight from the receive buffer; a read's value is copied
/// exactly once, out of the store into the response arena. The arena and
/// the chunk list reset per burst; a burst ends early once its responses
/// reach about kMaxFrameBytes, which bounds the arena.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "faults/fault_sink.h"
#include "nad/event_loop.h"
#include "nad/persistence.h"
#include "nad/protocol.h"
#include "nad/socket.h"
#include "obs/metrics.h"
#include "sim/register_store.h"

namespace nadreg::nad {

class NadServer : public faults::FaultSink, private EventLoop::IoWatcher {
 public:
  struct Options {
    std::uint16_t port = 0;  // 0: ephemeral, see port()
    std::string host = "127.0.0.1";  // bind address ("0.0.0.0" for all)
    std::uint64_t seed = 0x5eed;
    /// Artificial per-request service delay range (microseconds). A burst
    /// counts as one request — it is one vectored disk operation.
    std::uint64_t min_delay_us = 0;
    std::uint64_t max_delay_us = 0;
    /// Durability: when non-empty, applied writes are journaled to
    /// <data_path>.log (write-ahead of the response) and recovered on
    /// Start; Checkpoint() compacts into <data_path>.snap.
    std::string data_path;
  };

  /// Binds and starts serving. Returns kUnavailable if the port is taken
  /// or (with data_path set) the state cannot be recovered/journaled.
  static Expected<std::unique_ptr<NadServer>> Start(Options opts);

  ~NadServer() override;
  NadServer(const NadServer&) = delete;
  NadServer& operator=(const NadServer&) = delete;

  std::uint16_t port() const { return port_; }

  // --- faults::FaultSink (see the file comment) ---------------------------

  /// Crash faults: same semantics as the simulated farm (permanent).
  void CrashRegister(const RegisterId& r) override;
  void CrashDisk(DiskId d) override;
  /// Runtime per-request service-delay override (replaces Options' range).
  void DelayDisk(DiskId d, std::uint64_t min_us, std::uint64_t max_us) override;
  /// Drops each incoming burst with probability permille/1000.
  void DropRequests(DiskId d, std::uint32_t permille) override;
  /// Closes every established connection; keeps listening (recoverable).
  void DisconnectDisk(DiskId d) override;
  /// Holds every request until `dur` from now elapses, then serves them.
  void StallDisk(DiskId d, std::chrono::milliseconds dur) override;
  /// Clears delay override, drop rate, and stall (crashes persist), and
  /// resumes every burst a stall or delay holds.
  void Heal(DiskId d) override;

  /// Requests served (responses actually sent), one per op.
  std::uint64_t ServedCount() const;

  /// This server's metrics (request counts, per-opcode service latency).
  /// Per-instance — many servers in one process don't share it — and the
  /// same data the STATS opcode returns over the wire as plain text.
  const obs::Registry& metrics() const { return metrics_; }

  /// Number of records replayed at start-up (0 for a fresh/volatile disk).
  std::size_t RecoveredCount() const { return recovered_; }

  /// Compacts durable state: snapshot, then truncate the journal.
  /// No-op (Ok) for a volatile server; kUnavailable once stopped.
  Status Checkpoint();

  /// Stops the loop and closes the listener and all connections (also
  /// done by the dtor). Idempotent.
  void Stop();

 private:
  struct Conn;
  /// What a burst ended on (see ServeBurst).
  enum class BurstEnd : std::uint8_t { kDrained, kFull, kHeld, kBadFrame };

  explicit NadServer(Options opts);

  // All of these run on the loop thread.
  /// The listener is readable: accepts every pending connection.
  void OnIoReady(std::uint32_t events) override;
  void OnConnReady(Conn* c, std::uint32_t events);
  /// Reads, serves and answers until the socket would block or `c` parks.
  void Pump(Conn* c);
  /// Serves the complete frames buffered in c->io as one burst.
  BurstEnd ServeBurst(Conn* c);
  /// The transport fault filter, run once per burst before its first disk
  /// op. False when the burst is held: `c` is parked on a wheel timer.
  bool FaultFilter(Conn* c);
  /// Parks `c` until `until`, or until Heal resumes it.
  void Hold(Conn* c, std::chrono::steady_clock::time_point until);
  /// Unwatches and closes `c`; frees it once this loop iteration is over.
  void Close(Conn* c);
  /// Serves one read/write/merge against the store, appending its
  /// response frame to `w`. Returns false when the request is swallowed
  /// (crashed register or journal failure) — nothing appended.
  bool ServeOpView(const MessageView& msg, FrameWriter* w);
  /// Appends a STATS response frame (the metrics dump) to `w`.
  void AppendStats(std::uint64_t request_id, FrameWriter* w);

  const Options opts_;
  std::uint16_t port_ = 0;
  std::size_t recovered_ = 0;
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint64_t> served_{0};

  // Loop-confined state (see the file comment).
  std::unique_ptr<Listener> listener_;
  sim::RegisterStore store_;
  Journal journal_;
  Rng rng_;
  std::vector<std::unique_ptr<Conn>> conns_;
  /// Closed this iteration; the epoll batch may still name them.
  std::vector<std::unique_ptr<Conn>> closed_;
  // Fault filter state: the service-delay range (Options' until
  // DelayDisk replaces it, again after Heal), the drop rate, and the
  // stall deadline that holds bursts while now < stall_until_.
  std::uint64_t delay_min_us_;
  std::uint64_t delay_max_us_;
  std::uint32_t drop_permille_ = 0;
  std::chrono::steady_clock::time_point stall_until_{};

  // Per-instance observability (see metrics()). The Registry locks
  // itself (§12 rank 3); the pointers are hot-path handles resolved once
  // in the constructor.
  obs::Registry metrics_;
  obs::Counter* reads_served_;
  obs::Counter* writes_served_;
  obs::Counter* merges_served_;
  obs::Counter* dropped_crashed_;
  obs::Counter* dropped_faulted_;
  obs::Histogram* read_serve_us_;
  obs::Histogram* write_serve_us_;
  obs::Histogram* batch_size_;

  /// Last member: destroyed (stopped and joined) before the state the
  /// loop thread touches.
  std::unique_ptr<EventLoop> loop_;
};

}  // namespace nadreg::nad
