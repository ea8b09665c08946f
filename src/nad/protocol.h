/// \file
/// Wire protocol of the TCP network-attached disk.
///
/// A NAD is "a simple device that just executes requests to read and write
/// blocks of data" (Section 1). The protocol is correspondingly small:
/// length-prefixed frames, each carrying exactly one operation or one
/// STATS probe. Requests carry a client-chosen id echoed in the response
/// so a client can multiplex many outstanding nonblocking operations over
/// one connection — the model's concurrent pending requests (Fig. 1).
///
///   frame    := u32 payload_length, payload
///   payload  := u8 type, u64 request_id, body
///   ReadReq  := u32 disk, u64 block
///   WriteReq := u32 disk, u64 block, bytes value
///   ReadResp := bytes value
///   WriteResp:= (empty)
///   StatsReq := (empty)
///   StatsResp:= bytes text
///   MergeReq := u32 disk, u64 block, bytes delta
///   MergeResp:= (empty)
///
/// Type codes 7 and 8 are retired (they were a vectored batch frame) and
/// decode as unknown types. Batching is a syscall property, not a frame
/// shape (DESIGN.md §11): a client writes a whole quorum phase's per-op
/// frames with one writev, and a server answers every complete frame it
/// has buffered (a *burst*) with one sendmsg.
///
/// MERGE is the coded-storage opcode: instead of overwriting the register,
/// the server applies MergeCodedCell(current, delta) at the linearization
/// point — the join of the erasure-coded cell semilattice (fragments +
/// committed tag, common/coded_cell.h). The join is idempotent and
/// commutative, so the client retransmits merges across reconnects exactly
/// like writes. Wire shape is identical to WriteReq/WriteResp.
///
/// STATS is an out-of-band observability opcode (it does not exist in the
/// paper's model and takes no part in any emulation): the server answers
/// with a plain-text dump of its metrics registry — request counts,
/// per-opcode service latency, journal/recovery counters.
///
/// A crashed register/disk simply never answers — there is no error
/// response for it, exactly like the unresponsive failure mode.
///
/// Two encode/decode surfaces share this format:
///  * FrameWriter + AppendPayload / DecodeMessageView — the one path the
///    client and server use. FrameWriter builds [u32 length][payload]
///    frames directly as a list of WireChunks: header bytes are
///    bump-allocated from an Arena and merged into contiguous runs, value
///    bytes are REFERENCED in place (zero-copy) and scatter-gathered into
///    writev by FramedConn, the connection core the client and the
///    server share. DecodeMessageView parses a frame into views
///    over the receive buffer and allocates nothing. Ownership rules are
///    documented on each type (and DESIGN.md §14).
///  * Message + EncodeMessage/DecodeMessage — the owning, materializing
///    pair, used only as the test golden the zero-copy path is checked
///    byte-for-byte against (and by the tests' raw-socket peers).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/codec.h"
#include "common/status.h"
#include "common/types.h"
#include "nad/socket.h"

namespace nadreg::nad {

enum class MsgType : std::uint8_t {
  kReadReq = 1,
  kWriteReq = 2,
  kReadResp = 3,
  kWriteResp = 4,
  kStatsReq = 5,
  kStatsResp = 6,
  // 7 and 8 are retired (the old batch frame); decoders reject them.
  kMergeReq = 9,
  kMergeResp = 10,
};

/// Owning form of one message: the test golden (see the file comment).
struct Message {
  MsgType type = MsgType::kReadReq;
  std::uint64_t request_id = 0;
  RegisterId reg;     // requests only
  std::string value;  // WriteReq/MergeReq and ReadResp

  friend bool operator==(const Message&, const Message&) = default;
};

/// Serializes a message payload (without the frame length prefix).
std::string EncodeMessage(const Message& m);

/// Parses a message payload. Total: never trusts lengths or enum values.
[[nodiscard]] Expected<Message> DecodeMessage(std::string_view payload);

/// Maximum accepted frame payload (guards server memory against a
/// malformed or hostile length prefix).
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;

/// One contiguous span of outbound bytes — the unit of the zero-copy
/// gather path. Chunks either point into an Arena (frame headers, copied
/// values) or into caller-owned value storage; see FrameWriter.
struct WireChunk {
  const char* data = nullptr;
  std::size_t len = 0;
};

/// Values at or below this size are COPIED into the arena by PutBytesRef
/// instead of referenced. Two reasons, one of them load-bearing:
///  * Correctness: a std::string this small may store its bytes inline
///    (SSO; libstdc++ caps at 15, libc++ at 22, MSVC at 15). An inline
///    buffer lives inside the string object, so moving the string — as
///    FramedConn::KeepAlive does with a completed-but-unsent write value
///    — mutates or relocates the referenced bytes and the
///    queued chunk transmits garbage. Above this threshold every
///    mainstream implementation heap-allocates, and moving the string
///    preserves the buffer address.
///  * Efficiency: a dedicated iovec entry costs more than memcpy'ing a
///    handful of bytes into the open header run.
inline constexpr std::size_t kSmallValueCopyBytes = 22;

/// Builds [u32 length][payload] frames directly as WireChunks, replacing
/// the EncodeMessage-into-a-string + frame-copy pipeline on the hot path.
///
/// Header bytes (type, ids, lengths) are bump-allocated from the arena
/// and merged into as few chunks as possible; PutBytesRef emits the
/// caller's value bytes as their own chunk WITHOUT copying (except small
/// values, which it copies — see kSmallValueCopyBytes). The frame
/// length prefix is reserved by BeginFrame and backpatched by EndFrame.
///
/// Ownership rules (DESIGN.md §14):
///  * Chunks alias the arena and the PutBytesRef sources. Both must stay
///    alive and unmodified until the kernel has accepted every chunk —
///    the client parks write values in its pending table (stable slots)
///    precisely so the wire may reference them. Chunks never alias a
///    string's inline (SSO) buffer: sources that small are copied, so a
///    referenced source can safely be MOVED elsewhere (its heap buffer
///    address survives the move) as long as it is not destroyed.
///  * The writer holds a raw pointer into `out`'s last element between
///    calls, so `out` must not be mutated externally mid-frame.
class FrameWriter {
 public:
  /// Both pointers are borrowed; chunks are appended to `*out`.
  FrameWriter(Arena* arena, std::vector<WireChunk>* out)
      : arena_(arena), out_(out) {}

  /// Starts a frame: reserves the 4-byte length prefix for EndFrame.
  void BeginFrame();
  /// Backpatches the length prefix and flushes the open header run.
  /// Returns the frame's payload length (what the prefix now says).
  std::size_t EndFrame();

  void PutU8(std::uint8_t v);
  void PutU32(std::uint32_t v);
  void PutU64(std::uint64_t v);
  /// u32 length prefix + the bytes by REFERENCE (zero-copy): `v` must
  /// outlive the chunks (see the ownership rules above). Values of
  /// kSmallValueCopyBytes or fewer are copied into the arena instead, so
  /// chunks never alias a possibly-inline (SSO) string buffer.
  void PutBytesRef(std::string_view v);
  /// u32 length prefix + a copy of the bytes into the arena. For sources
  /// that die before the send (e.g. values read out under a lock).
  void PutBytesCopy(std::string_view v);

  Arena* arena() { return arena_; }

 private:
  /// `n` arena header bytes, extending the open chunk when contiguous.
  char* HeaderBytes(std::size_t n);
  void CloseOpenChunk();

  Arena* arena_;
  std::vector<WireChunk>* out_;
  char* len_slot_ = nullptr;  // frame length prefix, patched by EndFrame
  std::size_t payload_bytes_ = 0;
  char* open_base_ = nullptr;  // current header run, not yet in *out_
  char* open_end_ = nullptr;
};

/// Appends one message payload to `w` (no frame bookkeeping: callers
/// bracket it with BeginFrame/EndFrame). `value` is referenced zero-copy
/// (PutBytesRef) for the value-carrying types; byte-identical to
/// EncodeMessage of the equivalent Message.
void AppendPayload(FrameWriter& w, MsgType t, std::uint64_t request_id,
                   const RegisterId& reg, std::string_view value);

/// Zero-copy decode result: `value` views the decoded buffer. Valid only
/// while that buffer lives unmodified — i.e. within one frame-dispatch
/// cycle; copy anything that must survive (the client copies a read value
/// exactly once, into the handler's Value).
struct MessageView {
  MsgType type = MsgType::kReadReq;
  std::uint64_t request_id = 0;
  RegisterId reg;          // requests only
  std::string_view value;  // WriteReq / MergeReq / ReadResp / StatsResp
};

/// Parses a message payload into views (see MessageView for validity).
/// Total, exactly like DecodeMessage: never trusts lengths or enum
/// values (the retired types 7 and 8 included); rejects trailing bytes.
[[nodiscard]] Expected<MessageView> DecodeMessageView(std::string_view payload);

/// Frame-payload overhead of one encoded WriteReq around its value
/// (type + request id + disk + block + value length prefix). A write
/// value of more than kMaxFrameBytes - kWriteReqOverhead bytes can never
/// be framed.
inline constexpr std::size_t kWriteReqOverhead = 1 + 8 + 4 + 8 + 4;

/// One non-blocking connection's framed byte streams: the one
/// connection core of the client and the daemon. It owns the socket, the
/// receive buffer frames are parsed from, and the gather queue of
/// outbound frames with the arena their headers live in. Each side keeps
/// only its protocol state on top (the client its pending table, link
/// state and breaker; the daemon its fault filter). Loop-confined: only
/// the owning event loop touches it, so nothing here is locked.
///
/// The owner drives it on readiness edges: Fill and NextFrame/Consume
/// on kReadable, Flush on kWritable while want_write(). Sockets are
/// edge-triggered (event_loop.h), and both sides drain reads alike: a
/// short read ends the drain unless MarkPeerClosed was called, in which
/// case reads go on to the close.
///
/// Ownership (DESIGN.md §14): queued chunks alias the arena and the
/// values the owner framed by reference; those must outlive the chunks.
/// A value whose owner dies while its bytes may still be queued goes to
/// KeepAlive, which parks it on a zombie list that dies with the queue.
class FramedConn {
 public:
  /// How Fill or Flush left the socket.
  enum class Io : std::uint8_t {
    kMore,     // Fill: the read filled its buffer; more may be waiting
    kDrained,  // Fill: the socket is empty. Flush: the queue is sent
    kParked,   // Flush: the kernel is full; flush again on kWritable
    kClosed,   // the peer closed or the socket failed
  };
  /// What NextFrame found at the front of the receive buffer.
  enum class Frame : std::uint8_t { kReady, kNone, kBadLength };

  FramedConn() = default;
  explicit FramedConn(Socket sock) : sock_(std::move(sock)) {}

  const Socket& socket() const { return sock_; }
  /// A partial send parked the queue until the next kWritable edge.
  bool want_write() const { return want_write_; }
  /// Unsent bytes are queued.
  bool busy() const { return head_ < chunks_.size(); }
  /// The peer shut its side (EventLoop::kPeerClosed): no edge follows,
  /// so Fill reports kDrained only at the close.
  void MarkPeerClosed() { peer_closed_ = true; }

  /// A writer that appends frames to the send queue.
  FrameWriter Writer() { return FrameWriter(&arena_, &chunks_); }
  /// Keeps `v` alive while queued chunks may still reference it. Only a
  /// heap-backed value can be referenced (PutBytesRef copies smaller
  /// ones), and moving it keeps its buffer at the same address.
  void KeepAlive(Value&& v);

  /// One recv into the receive buffer, sized to hold a buffered partial
  /// frame whole. kDrained on a short read (unless the peer closed),
  /// kMore on a full one, kClosed at the close or on an error.
  Io Fill();
  /// The payload of the next complete buffered frame. kNone while it is
  /// incomplete; kBadLength when its length exceeds kMaxFrameBytes (the
  /// stream cannot be resynchronized). The view is valid until Consume.
  Frame NextFrame(std::string_view* payload) const {
    return FrameAt(0, payload);
  }
  /// How many complete frames are buffered: the kReady answers NextFrame
  /// gives, Consume by Consume, before kNone or kBadLength.
  std::size_t ReadyFrames() const;
  /// Drops the frame NextFrame returned; views into it die.
  void Consume(std::string_view payload) { rx_.Consume(4 + payload.size()); }

  /// Gather-sends the queue: kDrained once the kernel holds all of it
  /// (the arena, the chunks and the zombies recycle), kParked when the
  /// kernel buffer filled first, kClosed when the socket broke.
  Io Flush();
  /// Rewrites the unsent bytes as one arena-backed chunk, so the sent
  /// chunk prefix, its headers and the zombies reclaim without a full
  /// drain. Flush runs it under sustained backpressure.
  void Compact();
  /// Adopts `sock` (closing the old socket) and drops the receive
  /// buffer, the send queue and the peer-closed mark.
  void Reset(Socket sock = Socket());

 private:
  /// Drops the send queue: chunks, their arena bytes and the zombies.
  void ClearQueue();
  /// NextFrame for the frame starting `at` bytes into the receive buffer
  /// (`at` is a frame boundary no further than its end).
  Frame FrameAt(std::size_t at, std::string_view* payload) const;

  Socket sock_;
  RxBuffer rx_;
  Arena arena_;  // frame headers and copied values of queued chunks
  std::vector<WireChunk> chunks_;  // unsent from chunks_[head_] + off_ on
  std::size_t head_ = 0;
  std::size_t off_ = 0;
  /// Values that queued chunks may reference after their owner let go;
  /// empty in steady state.
  std::vector<Value> zombies_;
  std::string scratch_;  // Compact's bounce buffer (capacity reused)
  bool want_write_ = false;
  bool peer_closed_ = false;
};

/// Where a NAD server listens / a client connects. Shared by every binary
/// that names a disk on the network (client library, CLIs, demos).
struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  friend bool operator==(const Endpoint&, const Endpoint&) = default;
};

/// Parses "host:port" or bare "port" (host defaults to 127.0.0.1).
/// Rejects empty hosts, non-numeric or out-of-range ports.
[[nodiscard]] Expected<Endpoint> ParseEndpoint(std::string_view s);

}  // namespace nadreg::nad
