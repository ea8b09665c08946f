/// \file
/// TCP NAD client: implements the asynchronous fail-prone base-register
/// interface (BaseRegisterClient) against real network-attached disk
/// servers, so every emulation in core/ runs unchanged over the network.
///
/// The transport is an event-loop core (the Aerospike async-path shape,
/// ROADMAP item 1): N single-threaded epoll loops (Options::
/// num_event_loops, default = hardware concurrency), each owning a
/// disjoint pool of non-blocking connections, edge-triggered readiness,
/// and a per-loop timer wheel that absorbs what used to be a janitor
/// thread (expiry sweeps) and the reconnect CondVar waits (backoff redial
/// timers). Completion handlers run on the owning loop. Each connection
/// moves its bytes through a FramedConn (protocol.h), the same
/// connection core the daemon uses: gather-write (writev) framing out,
/// and a read drain that a short read ends unless the peer has closed.
/// The client keeps only its protocol state beside it: the pending
/// table, the staged ids, the link state, the breaker and the backoff.
///
/// The client-facing API is one entry point: Submit(process, ops,
/// options) takes a vector of Op variants — reads, writes, coded-cell
/// merges, and STATS probes — each carrying its own completion;
/// OpOptions supplies a
/// per-submission deadline overriding Options::op_timeout. Submit never
/// touches a socket: it validates, counts the ops in flight, and posts
/// them to their owning loops — truly nonblocking even when a peer stops
/// draining (the Fig. 1 model requires issue to return immediately). The
/// classic IssueRead/IssueWrite/IssueReads/IssueWrites and QueryStats are
/// thin shims over Submit, so core::RegisterSet, quorum_wait.h, and all
/// emulations run unchanged.
///
/// Every op travels as its own per-op frame (protocol.h); batching is a
/// syscall property. Each admission pass frames every staged op bound for
/// a disk into that connection's gather queue and hands the queue to one
/// writev, so a quorum phase issued via IssueReads/IssueWrites costs one
/// send syscall per disk instead of one per register — and the server
/// answers the frames it finds buffered together with one sendmsg.
///
/// Failure handling (the chaos-tolerant transport under the paper's
/// fail-prone model):
///
///  * Reconnect — when a connection dies (send or recv failure), its loop
///    resets its FramedConn, schedules a redial on the timer wheel with
///    capped exponential backoff + jitter (nad/retry.h), performs a
///    non-blocking connect, and retransmits every still-pending request
///    on the new socket. Retransmission can apply a write twice; that is
///    harmless under the emulations' discipline — every base register has
///    at most one writer process with at most one outstanding write
///    (core::RegisterSet), so a duplicate is an idempotent replay of the
///    still-pending write, squarely within the Fig. 1 pending-write
///    semantics. STATS probes die with the link (kUnavailable) — both
///    the in-flight ones and any admitted before the link is back up.
///  * Expiry — every pending op with a finite deadline (Options::
///    op_timeout or an OpOptions deadline) is swept by a wheel timer
///    armed at the earliest expiry: read/write handlers simply never run
///    (crashed-register semantics; an expired-but-sent write is a
///    textbook pending write and the checkers treat it as such), STATS
///    handlers complete with kTimeout.
///  * Circuit breaking — reconnect failures or expiry sweeps open a
///    per-disk breaker (nad/retry.h). While open, IsSuspectedCrashed
///    (disk) returns true, so core::RegisterSet stops issuing doomed
///    operations to that disk instead of letting a phase hang on it;
///    after a cooldown the breaker half-opens and traffic probes again.
///
/// Ownership contract (DESIGN.md §12): all connection state — the
/// FramedConn, staged ids, the pending-op table, breaker, backoff, timers —
/// is owned by the connection's loop and touched only on the loop thread
/// (the single-writer rule). The old send_mu → pending_mu nesting is
/// gone; the only client mutexes left are each loop's task inbox and the
/// QueryStats shim's private waiter. Cross-thread reads (InFlight, the
/// in-flight gauge, IsSuspectedCrashed) go through dedicated atomics
/// updated by the loops.
///
/// Hot-path memory discipline (DESIGN.md §14): in-flight state lives in
/// one PendingTable per connection (stable slab entries, no per-op node
/// allocations) instead of three unordered_maps; frames are built by
/// protocol.h's FrameWriter as WireChunks — headers bump-allocated from
/// the connection's queue arena, write values referenced IN PLACE from
/// their pending-table entries — and gather-written straight to writev,
/// so a write's value bytes are copied exactly zero times between Submit
/// and the kernel (values small enough to be SSO are the exception: they
/// are copied into the arena so no chunk ever aliases a string's inline
/// buffer — see kSmallValueCopyBytes). Responses are decoded as views
/// (DecodeMessageView over the rx buffer, allocating nothing); the only
/// hot-path copy left is materializing a read's Value for its handler.
/// The arena resets when the queue drains. Heap-backed write values
/// whose ops expire while their bytes are still queued go to
/// FramedConn::KeepAlive, a zombie list that dies with the queue — the
/// gather queue never dangles. Under sustained send backpressure the
/// queue is compacted (FramedConn::Compact): the sent prefix, its arena
/// headers, and the zombies reclaim without a full drain.
///
/// Observability: per-RPC latency ("nad.client.read_us"/"write_us"),
/// outstanding depth ("nad.client.in_flight"), coalescing depth
/// ("nad.client.batch_size": ops framed per admission-pass flush), plus
/// the fault-path series: "nad.client.retries" (requests retransmitted after a reconnect),
/// "nad.client.reconnects" (successful reconnects),
/// "nad.client.reconnect_failures", "nad.client.expired" (operations
/// expired past their deadline) and "nad.client.breaker_open"
/// (closed/half-open → open transitions). Completed RPCs emit trace
/// spans (obs/trace.h). InFlight() and the in-flight gauge share one
/// atomic counter, so they agree at every instant — including across
/// expiry sweeps.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/base_register.h"
#include "common/op_options.h"
#include "common/status.h"
#include "nad/event_loop.h"
#include "nad/protocol.h"
#include "nad/retry.h"
#include "obs/metrics.h"

namespace nadreg::nad {

/// Tuning knobs for NadClient, passed to NadClient::Connect. Namespace
/// scope (aliased as NadClient::Options) so Connect can default it — a
/// nested class's member initializers are not usable in a default
/// argument of its own enclosing class.
struct ClientOptions {
  /// Per-operation expiry budget. Zero = never expire (an unanswered
  /// op stays pending forever, exactly the paper's unresponsive mode).
  /// An OpOptions deadline passed to Submit overrides this per call.
  std::chrono::milliseconds op_timeout{0};
  /// Backoff and circuit-breaker tuning for the reconnect path.
  RetryPolicy retry;
  /// Event loops hosting the connections. 0 = one per hardware thread.
  /// Clamped to the connection count (a connection has exactly one
  /// owning loop); values above NadClient::kMaxEventLoops fail Connect
  /// with kInvalid.
  std::size_t num_event_loops = 0;
};

class NadClient : public BaseRegisterClient {
 public:
  /// Completion for a STATS op: the server's metrics dump on success,
  /// kTimeout when the deadline expired first, kUnavailable when the
  /// disk is unmapped or the connection died before an answer.
  using StatsHandler = std::function<void(Expected<std::string>)>;

  /// Sanity ceiling for Options::num_event_loops, validated at Connect.
  static constexpr std::size_t kMaxEventLoops = 256;

  using Options = ClientOptions;

  /// Connects to every endpoint. Fails (kUnavailable) if any connection
  /// cannot be established — a disk that is down at start-up should be
  /// mapped anyway and will simply appear crashed. kInvalid if
  /// `options.num_event_loops` exceeds kMaxEventLoops.
  static Expected<std::unique_ptr<NadClient>> Connect(
      std::map<DiskId, Endpoint> endpoints, Options options = {});

  ~NadClient() override;
  NadClient(const NadClient&) = delete;
  NadClient& operator=(const NadClient&) = delete;

  /// One operation of a Submit batch. Reads, writes, coded-cell merges,
  /// and STATS probes are variants of the same op shape, each with its
  /// own completion handler (run on the owning connection's loop thread —
  /// handlers must not block).
  struct Op {
    enum class Kind : std::uint8_t { kRead, kWrite, kMerge, kStats };

    Kind kind = Kind::kRead;
    /// Target register for reads/writes/merges; STATS uses only reg.disk.
    RegisterId reg{};
    Value value{};  // write payload or merge delta; unused otherwise
    ReadHandler on_read;
    WriteHandler on_write;  // completes writes AND merges
    StatsHandler on_stats;

    static Op Read(RegisterId r, ReadHandler done);
    static Op Write(RegisterId r, Value v, WriteHandler done);
    /// Coded-cell merge (common/coded_cell.h): the server joins `delta`
    /// into the register at its linearization point. Rides the write path
    /// end to end — framing, batching, expiry, and retransmit after a
    /// reconnect (the join is idempotent, so a replay is harmless by
    /// construction, not just by the single-writer discipline).
    static Op Merge(RegisterId r, Value delta, WriteHandler done);
    static Op Stats(DiskId d, StatsHandler done);
  };

  /// The single issue path: validates each op, counts it in flight, and
  /// hands it to its disk's owning loop. Never blocks. Ops for the same
  /// disk submitted in one call are admitted atomically, so one
  /// admission pass sends their frames with one writev. Ops on an
  /// unmapped or closed-forever disk behave as crashed (the handler
  /// never runs), except STATS which completes with kUnavailable;
  /// oversized writes are dropped fail-fast (see RejectOversized).
  /// `opts.deadline`, when set, overrides Options::op_timeout for every
  /// op in this call.
  void Submit(ProcessId p, std::vector<Op> ops, const OpOptions& opts = {});

  // ---- Thin shims over Submit (the pre-redesign surface) ----
  void IssueRead(ProcessId p, RegisterId r, ReadHandler done) override;
  void IssueWrite(ProcessId p, RegisterId r, Value v,
                  WriteHandler done) override;
  void IssueReads(ProcessId p, std::vector<ReadOp> ops) override;
  void IssueWrites(ProcessId p, std::vector<WriteOp> ops) override;
  bool SupportsMerge() const override { return true; }
  void IssueMerge(ProcessId p, RegisterId r, Value delta,
                  WriteHandler done) override;
  void IssueMerges(ProcessId p, std::vector<WriteOp> ops) override;

  /// True while the disk's circuit breaker is open (or the disk is
  /// unmapped / shut down). See the class comment; consumed by
  /// core::RegisterSet to fail phases fast instead of hanging them.
  bool IsSuspectedCrashed(DiskId d) const override;

  /// Fetches the server-side metrics dump (STATS opcode) from one disk.
  /// A blocking shim over a Submit STATS op with an OpOptions deadline:
  /// kTimeout if the disk does not answer in time (a crashed disk
  /// swallows STATS like any other request), kUnavailable if the disk is
  /// unmapped or its connection is dead.
  Expected<std::string> QueryStats(DiskId d, std::chrono::milliseconds timeout);

  /// Number of operations whose response is still outstanding (reads,
  /// writes, and STATS probes). Always equals the nad.client.in_flight
  /// gauge: both read the same atomic counter.
  std::size_t InFlight() const;

  /// Event loops actually running (after defaulting and clamping).
  std::size_t NumEventLoops() const { return loops_.size(); }

 private:
  struct Conn;         // all state loop-owned; defined in client.cc
  struct SubmitEntry;  // one admitted op en route to its loop

  explicit NadClient(Options options);

  Conn* ConnFor(DiskId d) const;
  /// Expiry deadline for an op issued now.
  std::chrono::steady_clock::time_point ExpiryFrom(
      std::chrono::steady_clock::time_point now) const;
  /// Drops an op whose value can never fit a frame: logs, counts, and
  /// leaves the handler unrun (fail-fast — nothing touches the wire).
  void RejectOversized(const RegisterId& r, std::size_t value_bytes);
  /// Single-writer update of the shared in-flight count + gauge.
  void AddInFlight(std::int64_t delta);

  // ---- Loop-thread-only internals (see client.cc) ----
  void RegisterConn(Conn* conn);
  void Admit(std::vector<SubmitEntry> entries);
  /// Redial completion, response reads and write resumption.
  void OnIoReady(Conn* conn, std::uint32_t events);
  /// Decodes one response frame and completes its pending op.
  void HandleFrame(Conn* conn, std::string_view payload);
  /// Frames the staged ops into the send queue and flushes it.
  void SendStaged(Conn* conn);
  void OnLinkBroken(Conn* conn);
  /// Fatal-handler body for a loop that died of an epoll failure: marks
  /// its connections dead-for-good (suspected forever) and resolves
  /// their pending ops — read/write handlers destroyed unrun, STATS
  /// failed kUnavailable — since no sweep or redial will ever run there.
  void OnLoopDead(EventLoop* loop);
  void ScheduleRedial(Conn* conn);
  void StartRedial(Conn* conn);
  void OnRedialFailed(Conn* conn);
  void OnRedialConnected(Conn* conn);
  void MaybeArmSweep(Conn* conn, std::chrono::steady_clock::time_point at);
  void Sweep(Conn* conn);
  void RecordBreakerFailure(Conn* conn,
                            std::chrono::steady_clock::time_point now);
  void PublishSuspicion(Conn* conn,
                        std::chrono::steady_clock::time_point now);

  Options options_;
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::map<DiskId, std::unique_ptr<Conn>> conns_;

  /// Source of truth for InFlight() and the in-flight gauge (the two can
  /// never disagree: every admit/complete/expire/drop updates both
  /// through AddInFlight).
  std::atomic<std::int64_t> in_flight_count_{0};

  // Resolved once; recording is lock-free (see obs/metrics.h).
  obs::Histogram* read_us_;
  obs::Histogram* write_us_;
  obs::Histogram* batch_size_;
  obs::Gauge* in_flight_;
  obs::Counter* rejected_oversized_;
  obs::Counter* retries_;
  obs::Counter* reconnects_;
  obs::Counter* reconnect_failures_;
  obs::Counter* expired_;
  obs::Counter* breaker_open_;
};

}  // namespace nadreg::nad
