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
/// Bursts: every frame carries one operation (protocol.h), and batching
/// is a syscall property. The serve loop blocks for one frame, then takes
/// every complete frame already buffered behind it (FrameReader::
/// HasFrame) — a *burst* — and answers them in FIFO order with one
/// sendmsg. A crashed register's response is simply omitted from the
/// burst while its neighbours answer; a burst whose every op is swallowed
/// sends nothing. "nad.server.batch_size" counts the ops of each burst.
///
/// Fault injection: the daemon is a faults::FaultSink, so a FaultInjector
/// can drive it like a simulated farm. The crash faults delegate to the
/// store (permanent, the paper's model); the transport faults are a
/// *fault filter* applied once per burst before its first disk op — a
/// stalled daemon holds the burst until the stall elapses, a lossy daemon
/// drops each burst with the configured probability, DisconnectDisk severs all
/// established connections (the daemon keeps listening, so reconnecting
/// clients recover), and Heal clears every recoverable fault. One daemon
/// is one fault domain: the DiskId arguments of the transport faults are
/// ignored. STATS is exempt from the filter: it is observability, not a
/// disk operation.
///
/// Concurrency: register state lives in a sim::ShardedRegisterStore with
/// striped per-register locking, so connections serving distinct registers
/// never contend on a global lock. Lock order (DESIGN.md §12): stripe
/// locks before journal_mu_; mu_ (connection bookkeeping, stall state)
/// nests with neither.
///
/// Memory discipline (DESIGN.md §14): the serve loop is zero-copy end to
/// end. Frames are read through a FrameReader (one buffer per connection,
/// many frames per recv), decoded into MessageViews over that buffer, and
/// answered through a FrameWriter into a per-connection arena gathered out
/// with one sendmsg — write values are journaled and applied straight from
/// the receive buffer; a read's value is copied exactly once, out of the
/// store into the response arena under the stripe lock. The arena and the
/// chunk list reset per burst; a burst ends early once its responses
/// reach about kMaxFrameBytes, which bounds the arena.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/sync.h"
#include "common/types.h"
#include "faults/fault_sink.h"
#include "nad/persistence.h"
#include "nad/protocol.h"
#include "nad/socket.h"
#include "obs/metrics.h"
#include "sim/register_store.h"

namespace nadreg::nad {

class NadServer : public faults::FaultSink {
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
  /// Severs every established connection; keeps listening (recoverable).
  void DisconnectDisk(DiskId d) override;
  /// Holds every request until `dur` from now elapses, then serves them.
  void StallDisk(DiskId d, std::chrono::milliseconds dur) override;
  /// Clears delay override, drop rate, and stall (crashes persist).
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
  /// No-op (Ok) for a volatile server.
  Status Checkpoint();

  /// Stops accepting and closes all connections (also done by the dtor).
  void Stop();

 private:
  explicit NadServer(Options opts);

  void AcceptLoop();
  void Serve(Socket conn, Rng rng);
  /// Serves one read/write/merge against the sharded store, appending its
  /// response frame to `w`. Returns false when the request is swallowed
  /// (crashed register or journal failure) — nothing appended.
  bool ServeOpView(const MessageView& msg, FrameWriter* w);
  /// Appends a STATS response frame (the metrics dump) to `w`.
  void AppendStats(std::uint64_t request_id, FrameWriter* w);
  /// The transport fault filter, run once per burst: holds while stalled,
  /// sets `*drop` on a lossy roll, sleeps the service delay otherwise.
  /// Returns false when the server is stopping.
  bool FaultFilter(Rng& rng, bool* drop);

  // All three are written in Start() before any server thread exists and
  // are read-only afterwards (Listener::Shutdown on a live fd is the one
  // documented cross-thread call and is fd-level safe).
  // lint-allow(tsa-coverage): set before threads start
  Options opts_;
  // lint-allow(tsa-coverage): set before threads start
  std::uint16_t port_ = 0;
  // lint-allow(tsa-coverage): set before threads start
  std::unique_ptr<Listener> listener_;

  // Hot path: striped locking inside the store; everything else atomic.
  // lint-allow(tsa-coverage): internally striped (§12 rank 3)
  sim::ShardedRegisterStore store_;
  std::atomic<std::uint64_t> served_{0};
  // lint-allow(tsa-coverage): written once in Start, then read-only
  std::size_t recovered_ = 0;

  // Fault filter state (see the file comment). The delay override and
  // drop rate are read per burst, so they are lock-free atomics;
  // kNoDelayOverride means "use Options' range".
  static constexpr std::uint64_t kNoDelayOverride = ~0ULL;
  std::atomic<std::uint64_t> delay_min_override_{kNoDelayOverride};
  std::atomic<std::uint64_t> delay_max_override_{kNoDelayOverride};
  std::atomic<std::uint32_t> drop_permille_{0};

  // Cold path: connection bookkeeping and the write-ahead journal.
  mutable Mutex mu_;
  // Requests are held (not dropped) while now < stall_until_; served
  // threads wait on fault_cv_, which Stop() interrupts.
  CondVar fault_cv_;
  std::chrono::steady_clock::time_point stall_until_ GUARDED_BY(mu_){};
  // Journal file I/O order; taken after a stripe lock (write path) or
  // after the full-store quiesce (checkpoint path) — never before either.
  Mutex journal_mu_;
  Journal journal_ GUARDED_BY(journal_mu_);
  bool stopping_ GUARDED_BY(mu_) = false;
  // For Stop() to shut down.
  std::vector<Socket*> live_conns_ GUARDED_BY(mu_);
  Rng rng_ GUARDED_BY(mu_);

  // Per-instance observability (see metrics()). The Registry locks
  // itself (§12 rank 5); the pointers are hot-path handles resolved once
  // in the constructor and read-only afterwards.
  // lint-allow(tsa-coverage): internally locked (§12 rank 5)
  obs::Registry metrics_;
  // lint-allow(tsa-coverage): resolved once in the ctor
  obs::Counter* reads_served_;
  // lint-allow(tsa-coverage): resolved once in the ctor
  obs::Counter* writes_served_;
  // lint-allow(tsa-coverage): resolved once in the ctor
  obs::Counter* merges_served_;
  // lint-allow(tsa-coverage): resolved once in the ctor
  obs::Counter* dropped_crashed_;
  // lint-allow(tsa-coverage): resolved once in the ctor
  obs::Counter* dropped_faulted_;
  // lint-allow(tsa-coverage): resolved once in the ctor
  obs::Histogram* read_serve_us_;
  // lint-allow(tsa-coverage): resolved once in the ctor
  obs::Histogram* write_serve_us_;
  // lint-allow(tsa-coverage): resolved once in the ctor
  obs::Histogram* batch_size_;

  // Grown only by the accept thread; cleared (joined) by Stop() after the
  // accept thread itself is joined, so access is lifecycle-serialized.
  // lint-allow(tsa-coverage): accept-thread confined
  std::vector<std::jthread> conn_threads_;
  // lint-allow(tsa-coverage): set in Start, joined in Stop/dtor
  std::jthread accept_thread_;
};

}  // namespace nadreg::nad
