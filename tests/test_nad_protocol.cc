// Unit tests for the NAD wire protocol: roundtrips of all message
// types, runs of per-op frames (what one writev or one server burst
// carries), rejection of malformed payloads and of the retired batch
// type codes, fuzz totality; the zero-copy surface (FrameWriter /
// DecodeMessageView) checked byte-for-byte against the
// materializing EncodeMessage/DecodeMessage golden pair; and the send
// queue of FramedConn, the connection core both ends share, over a
// socketpair: compaction under backpressure and values kept alive.
#include "nad/protocol.h"

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <cstring>
#include <string>
#include <vector>
#include <utility>

#include "common/rng.h"
#include "nad/socket.h"

namespace nadreg::nad {
namespace {

Message MakeRead(std::uint64_t id, DiskId d, BlockId b) {
  Message m;
  m.type = MsgType::kReadReq;
  m.request_id = id;
  m.reg = RegisterId{d, b};
  return m;
}

Message MakeWrite(std::uint64_t id, DiskId d, BlockId b, std::string v) {
  Message m;
  m.type = MsgType::kWriteReq;
  m.request_id = id;
  m.reg = RegisterId{d, b};
  m.value = std::move(v);
  return m;
}

Message MakeResp(MsgType t, std::uint64_t id, std::string v = {}) {
  Message m;
  m.type = t;
  m.request_id = id;
  m.value = std::move(v);
  return m;
}

std::string Flatten(const std::vector<WireChunk>& chunks) {
  std::string out;
  for (const WireChunk& c : chunks) out.append(c.data, c.len);
  return out;
}

// [u32 little-endian length][payload] — what a framed message looks like
// on the wire (matches SendFrame / the writer's length prefix).
std::string FramePrefix(std::string_view payload) {
  std::string f;
  for (int i = 0; i < 4; ++i) {
    f.push_back(static_cast<char>((payload.size() >> (8 * i)) & 0xff));
  }
  f.append(payload);
  return f;
}

// Frames `msgs` back to back through one FrameWriter — exactly what the
// client's admission pass queues for one writev, or a server burst for
// one sendmsg.
std::string FrameRun(const std::vector<Message>& msgs) {
  Arena arena;
  std::vector<WireChunk> chunks;
  FrameWriter w(&arena, &chunks);
  for (const Message& m : msgs) {
    w.BeginFrame();
    AppendPayload(w, m.type, m.request_id, m.reg, m.value);
    w.EndFrame();
  }
  return Flatten(chunks);
}

// Splits a run of frames at their length prefixes and decodes each with
// the golden decoder; fails the test on a torn or undecodable frame.
std::vector<Message> DecodeRun(std::string_view wire) {
  std::vector<Message> out;
  while (!wire.empty()) {
    std::uint32_t len = 0;
    EXPECT_GE(wire.size(), 4u);
    if (wire.size() < 4) break;
    std::memcpy(&len, wire.data(), 4);
    EXPECT_GE(wire.size() - 4, len);
    if (wire.size() - 4 < len) break;
    auto m = DecodeMessage(wire.substr(4, len));
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    if (!m.ok()) break;
    out.push_back(std::move(*m));
    wire.remove_prefix(4 + len);
  }
  return out;
}

// A payload under one of the retired batch type codes (7, 8): a count and
// one ReadReq sub, as the old batch frame laid them out.
std::string RetiredBatchPayload(std::uint8_t type) {
  std::string p(1, static_cast<char>(type));
  p.append(8, '\0');                  // request id
  p.append("\x01\0\0\0", 4);         // count = 1
  const std::string sub = EncodeMessage(MakeRead(1, 0, 0));
  const auto len = static_cast<std::uint32_t>(sub.size());
  p.append(reinterpret_cast<const char*>(&len), 4);
  p.append(sub);
  return p;
}

TEST(Protocol, ReadReqRoundtrip) {
  Message m;
  m.type = MsgType::kReadReq;
  m.request_id = 42;
  m.reg = RegisterId{3, 0x123456789abcULL};
  auto decoded = DecodeMessage(EncodeMessage(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, m);
}

TEST(Protocol, WriteReqRoundtrip) {
  Message m;
  m.type = MsgType::kWriteReq;
  m.request_id = 7;
  m.reg = RegisterId{0, 9};
  m.value = std::string("binary\0data", 11);
  auto decoded = DecodeMessage(EncodeMessage(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, m);
}

TEST(Protocol, ReadRespRoundtrip) {
  Message m;
  m.type = MsgType::kReadResp;
  m.request_id = 99;
  m.value = "the block contents";
  auto decoded = DecodeMessage(EncodeMessage(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, m);
}

TEST(Protocol, WriteRespRoundtrip) {
  Message m;
  m.type = MsgType::kWriteResp;
  m.request_id = 1;
  auto decoded = DecodeMessage(EncodeMessage(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, m);
}

TEST(Protocol, MergeReqRoundtrip) {
  Message m;
  m.type = MsgType::kMergeReq;
  m.request_id = 21;
  m.reg = RegisterId{5, 0xbeefULL};
  m.value = std::string("coded\0delta", 11);
  auto decoded = DecodeMessage(EncodeMessage(m));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, m);
}

TEST(Protocol, MergeRespRoundtrip) {
  Message m;
  m.type = MsgType::kMergeResp;
  m.request_id = 22;
  auto decoded = DecodeMessage(EncodeMessage(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, m);
}

TEST(Protocol, MergeIsBatchable) {
  // Merges batch like writes: a merge frame rides in the same run of
  // per-op frames as its neighbours (one writev), and a server burst
  // answers it in the same run as theirs (one sendmsg).
  Message merge;
  merge.type = MsgType::kMergeReq;
  merge.request_id = 4;
  merge.reg = RegisterId{1, 2};
  merge.value = "delta bytes";
  const std::vector<Message> reqs = {MakeRead(1, 0, 7), merge};
  EXPECT_EQ(DecodeRun(FrameRun(reqs)), reqs);
  const std::vector<Message> resps = {
      MakeResp(MsgType::kReadResp, 1, "block"),
      MakeResp(MsgType::kMergeResp, 4)};
  EXPECT_EQ(DecodeRun(FrameRun(resps)), resps);
}

TEST(Protocol, UnknownTypeRejected) {
  std::string payload = EncodeMessage(Message{});
  payload[0] = 0x7f;
  EXPECT_FALSE(DecodeMessage(payload).ok());
  payload[0] = 0;
  EXPECT_FALSE(DecodeMessage(payload).ok());
  // The retired batch codes are unknown types too, to both decoders.
  for (const std::uint8_t retired : {7, 8}) {
    const std::string batch = RetiredBatchPayload(retired);
    EXPECT_FALSE(DecodeMessage(batch).ok()) << int{retired};
    EXPECT_FALSE(DecodeMessageView(batch).ok()) << int{retired};
  }
}

TEST(Protocol, TruncationRejected) {
  Message m;
  m.type = MsgType::kWriteReq;
  m.request_id = 7;
  m.reg = RegisterId{1, 2};
  m.value = "value";
  std::string payload = EncodeMessage(m);
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(DecodeMessage(payload.substr(0, cut)).ok())
        << "cut at " << cut;
  }
}

TEST(Protocol, TrailingBytesRejected) {
  std::string payload = EncodeMessage(Message{});
  payload += "x";
  EXPECT_FALSE(DecodeMessage(payload).ok());
}

TEST(Protocol, BatchReqRoundtrip) {
  // A batch is a run of per-op frames written with one writev: every
  // request type, FIFO, each frame decoding on its own.
  Message stats;
  stats.type = MsgType::kStatsReq;
  stats.request_id = 4;
  const std::vector<Message> batch = {
      MakeRead(1, 0, 7), MakeWrite(2, 3, 9, std::string("mixed\0payload", 13)),
      MakeRead(3, 2, 0), stats};
  EXPECT_EQ(DecodeRun(FrameRun(batch)), batch);
}

TEST(Protocol, BatchRespRoundtrip) {
  const std::vector<Message> batch = {
      MakeResp(MsgType::kReadResp, 11, "block contents"),
      MakeResp(MsgType::kWriteResp, 12),
      MakeResp(MsgType::kStatsResp, 13, "metrics dump")};
  EXPECT_EQ(DecodeRun(FrameRun(batch)), batch);
}

TEST(Protocol, BatchFuzzDecodeIsTotalAndCanonical) {
  Rng rng(4242);
  for (int i = 0; i < 2000; ++i) {
    // Start from a valid per-op frame of a batch, then flip random bytes
    // (the type byte included, so retired and unknown codes come up):
    // decode must stay total, and anything accepted must re-encode
    // identically.
    Message m;
    switch (rng.Below(4)) {
      case 0:
        m = MakeRead(i, 0, i);
        break;
      case 1:
        m = MakeWrite(i, 1, i, "x");
        break;
      case 2:
        m = MakeResp(MsgType::kReadResp, i, "y");
        break;
      default:
        m = MakeResp(MsgType::kWriteResp, i);
        break;
    }
    std::string payload = EncodeMessage(m);
    const std::size_t flips = 1 + rng.Below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      payload[rng.Below(payload.size())] = static_cast<char>(rng.Below(256));
    }
    auto decoded = DecodeMessage(payload);
    if (decoded.ok()) {
      EXPECT_EQ(EncodeMessage(*decoded), payload);
    }
  }
}

TEST(Protocol, CheckedEncodeAcceptsLargestFramableWrite) {
  // The client's size guard (Submit) admits write values up to
  // kMaxFrameBytes - kWriteReqOverhead: exactly the largest frame a peer
  // accepts. NadRobustness.OversizedValueRejectedClientSide pins the
  // reject side end to end.
  Message fits =
      MakeWrite(1, 0, 0, std::string(kMaxFrameBytes - kWriteReqOverhead, 'x'));
  EXPECT_EQ(EncodeMessage(fits).size(), kMaxFrameBytes);
  // One byte more can never be framed.
  Message over = MakeWrite(
      1, 0, 0, std::string(kMaxFrameBytes - kWriteReqOverhead + 1, 'x'));
  EXPECT_GT(EncodeMessage(over).size(), kMaxFrameBytes);
}

TEST(Protocol, FuzzDecodeIsTotal) {
  Rng rng(777);
  for (int i = 0; i < 2000; ++i) {
    std::string garbage;
    const std::size_t len = rng.Below(40);
    for (std::size_t j = 0; j < len; ++j) {
      garbage.push_back(static_cast<char>(rng.Below(256)));
    }
    auto m = DecodeMessage(garbage);
    if (m.ok()) {
      EXPECT_EQ(EncodeMessage(*m), garbage);
    }
  }
}

// ---------------------------------------------------------------------------
// Zero-copy surface: FrameWriter / DecodeMessageView vs the golden pair.
// ---------------------------------------------------------------------------

void ExpectViewEquals(const MessageView& v, const Message& m) {
  EXPECT_EQ(v.type, m.type);
  EXPECT_EQ(v.request_id, m.request_id);
  EXPECT_EQ(v.reg, m.reg);
  EXPECT_EQ(v.value, std::string_view(m.value));
}

TEST(FrameWriter, MatchesEncodeMessageForEveryNonBatchType) {
  std::vector<Message> cases;
  cases.push_back(MakeRead(42, 3, 0x123456789abcULL));
  cases.push_back(MakeWrite(7, 0, 9, std::string("binary\0data", 11)));
  Message rr;
  rr.type = MsgType::kReadResp;
  rr.request_id = 99;
  rr.value = "the block contents";
  cases.push_back(rr);
  Message wr;
  wr.type = MsgType::kWriteResp;
  wr.request_id = 1;
  cases.push_back(wr);
  Message sq;
  sq.type = MsgType::kStatsReq;
  sq.request_id = 5;
  cases.push_back(sq);
  Message sr;
  sr.type = MsgType::kStatsResp;
  sr.request_id = 5;
  sr.value = "metrics dump";
  cases.push_back(sr);
  Message mq;
  mq.type = MsgType::kMergeReq;
  mq.request_id = 6;
  mq.reg = RegisterId{2, 8};
  mq.value = "coded-cell delta";
  cases.push_back(mq);
  Message mr;
  mr.type = MsgType::kMergeResp;
  mr.request_id = 6;
  cases.push_back(mr);

  Arena arena;
  for (const Message& m : cases) {
    arena.Reset();
    std::vector<WireChunk> chunks;
    FrameWriter w(&arena, &chunks);
    w.BeginFrame();
    AppendPayload(w, m.type, m.request_id, m.reg, m.value);
    const std::size_t payload_len = w.EndFrame();
    const std::string golden = EncodeMessage(m);
    EXPECT_EQ(payload_len, golden.size());
    EXPECT_EQ(Flatten(chunks), FramePrefix(golden))
        << "type " << static_cast<int>(m.type);
  }
}

TEST(FrameWriter, BatchCompositionMatchesEncodeMessage) {
  // The client's admission pass: several per-op frames through one
  // writer. The bytes are the golden frames end to end, and the reads'
  // headers — contiguous in the arena — share one chunk (one iovec).
  const std::vector<Message> batch = {MakeRead(1, 0, 7), MakeRead(2, 3, 9),
                                      MakeRead(3, 2, 0)};
  Arena arena;
  std::vector<WireChunk> chunks;
  FrameWriter w(&arena, &chunks);
  std::string golden;
  for (const Message& m : batch) {
    w.BeginFrame();
    AppendPayload(w, m.type, m.request_id, m.reg, m.value);
    w.EndFrame();
    golden += FramePrefix(EncodeMessage(m));
  }
  EXPECT_EQ(Flatten(chunks), golden);
  EXPECT_EQ(chunks.size(), 1u);
  // A referenced value splits the run: header, value, next header.
  const std::string value(64, 'v');
  w.BeginFrame();
  AppendPayload(w, MsgType::kWriteReq, 4, RegisterId{0, 1}, value);
  w.EndFrame();
  w.BeginFrame();
  AppendPayload(w, MsgType::kReadReq, 5, RegisterId{0, 2}, {});
  w.EndFrame();
  golden += FramePrefix(EncodeMessage(MakeWrite(4, 0, 1, value)));
  golden += FramePrefix(EncodeMessage(MakeRead(5, 0, 2)));
  EXPECT_EQ(Flatten(chunks), golden);
  EXPECT_EQ(chunks.size(), 3u);
}

TEST(FrameWriter, PutBytesRefIsZeroCopy) {
  const std::string value(1024, 'v');
  Arena arena;
  std::vector<WireChunk> chunks;
  FrameWriter w(&arena, &chunks);
  w.BeginFrame();
  AppendPayload(w, MsgType::kWriteReq, 1, RegisterId{0, 0}, value);
  w.EndFrame();
  // Exactly one chunk must point INTO the caller's value storage.
  bool referenced = false;
  for (const WireChunk& c : chunks) {
    if (c.data == value.data()) {
      EXPECT_EQ(c.len, value.size());
      referenced = true;
    }
  }
  EXPECT_TRUE(referenced) << "value bytes were copied, not referenced";
}

bool AnyChunkAliases(const std::vector<WireChunk>& chunks,
                     const std::string& value) {
  for (const WireChunk& c : chunks) {
    const char* lo = value.data();
    const char* hi = value.data() + value.size();
    if (c.data >= lo && c.data < hi) return true;
  }
  return false;
}

TEST(FrameWriter, SmallValuesAreCopiedNeverAliased) {
  // An SSO-sized std::string stores its bytes INSIDE the string object,
  // so a chunk referencing them dangles the moment the string is moved
  // (the client moves completed-but-unsent write values onto its zombie
  // list) or its slot is recycled. The writer must therefore copy every
  // value at or below kSmallValueCopyBytes into the arena — and may
  // only reference strictly larger (guaranteed heap-backed) ones.
  Arena arena;
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{15},
                        kSmallValueCopyBytes, kSmallValueCopyBytes + 1}) {
    arena.Reset();
    std::string value(n, 'z');
    std::vector<WireChunk> chunks;
    FrameWriter w(&arena, &chunks);
    w.BeginFrame();
    AppendPayload(w, MsgType::kWriteReq, 7, RegisterId{1, 2}, value);
    w.EndFrame();
    const bool aliased = AnyChunkAliases(chunks, value);
    if (n <= kSmallValueCopyBytes) {
      EXPECT_FALSE(aliased) << "size " << n << ": chunk aliases a "
                               "possibly-SSO string buffer";
    } else {
      EXPECT_TRUE(aliased) << "size " << n << ": large value was copied";
    }
    // The frame must survive the source string being moved from and the
    // moved-to string destroyed — exactly the zombie-park life cycle.
    const std::string golden =
        FramePrefix(EncodeMessage(MakeWrite(7, 1, 2, value)));
    if (n <= kSmallValueCopyBytes) {
      { std::string grave = std::move(value); }
      EXPECT_EQ(Flatten(chunks), golden) << "size " << n;
    } else {
      std::string parked = std::move(value);  // heap buffer address survives
      EXPECT_EQ(Flatten(chunks), golden) << "size " << n;
    }
  }
}

TEST(FrameWriter, ArenaResetRebuildIsByteIdentical) {
  // The steady-state cycle: frame, send, Reset, frame again. The second
  // cycle must produce identical bytes from the same (reused) memory.
  const Message m = MakeWrite(9, 1, 2, "steady-state payload");
  Arena arena;
  std::string first, second;
  for (std::string* out : {&first, &second}) {
    arena.Reset();
    std::vector<WireChunk> chunks;
    FrameWriter w(&arena, &chunks);
    w.BeginFrame();
    AppendPayload(w, m.type, m.request_id, m.reg, m.value);
    w.EndFrame();
    *out = Flatten(chunks);
  }
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, FramePrefix(EncodeMessage(m)));
}

TEST(ProtocolView, EmptyValueRoundtrips) {
  Message m = MakeWrite(1, 0, 0, "");
  const std::string payload = EncodeMessage(m);
  auto view = DecodeMessageView(payload);
  ASSERT_TRUE(view.ok());
  ExpectViewEquals(*view, m);
  EXPECT_TRUE(view->value.empty());
}

TEST(ProtocolView, MaxSizeValueRoundtrips) {
  // The largest framable write: payload is exactly kMaxFrameBytes.
  Message m =
      MakeWrite(1, 0, 0, std::string(kMaxFrameBytes - kWriteReqOverhead, 'x'));
  const std::string payload = EncodeMessage(m);
  ASSERT_EQ(payload.size(), kMaxFrameBytes);
  auto view = DecodeMessageView(payload);
  ASSERT_TRUE(view.ok());
  ExpectViewEquals(*view, m);
  // Zero-copy: the view aliases the payload buffer, no materialization.
  EXPECT_EQ(view->value.data(), payload.data() + kWriteReqOverhead);
}

TEST(ProtocolView, DecodeFromPartialReadBuffer) {
  // The client's actual receive path: recv lands 1.5 frames in an
  // RxBuffer; the first frame is decodable NOW (views aliasing the
  // buffer), the second only after the rest arrives — and compaction
  // between cycles must not corrupt it.
  const Message m1 = MakeWrite(1, 0, 7, "first frame value");
  const Message m2 = MakeRead(2, 3, 9);
  const std::string f1 = FramePrefix(EncodeMessage(m1));
  const std::string f2 = FramePrefix(EncodeMessage(m2));

  RxBuffer rx;
  const std::size_t half = f2.size() / 2;
  rx.EnsureTail(f1.size() + half);
  std::memcpy(rx.Tail(), f1.data(), f1.size());
  std::memcpy(rx.Tail() + f1.size(), f2.data(), half);
  rx.Commit(f1.size() + half);

  // Frame 1 is complete: parse its length, decode the payload in place.
  ASSERT_GE(rx.Size(), 4u);
  std::uint32_t len = 0;
  std::memcpy(&len, rx.Head(), 4);
  ASSERT_EQ(len, f1.size() - 4);
  ASSERT_GE(rx.Size(), 4 + len);
  auto v1 = DecodeMessageView(std::string_view(rx.Head() + 4, len));
  ASSERT_TRUE(v1.ok());
  ExpectViewEquals(*v1, m1);
  // The value view aliases the receive buffer — zero-copy.
  EXPECT_GE(v1->value.data(), rx.Head());
  EXPECT_LT(v1->value.data(), rx.Head() + rx.Size());
  rx.Consume(4 + len);

  // Frame 2 is incomplete: only half its bytes are in.
  std::memcpy(&len, rx.Head(), 4);
  EXPECT_LT(rx.Size(), 4 + len);

  // Grow/compact (moves the partial bytes), then the rest arrives.
  rx.EnsureTail(f2.size());
  std::memcpy(rx.Tail(), f2.data() + half, f2.size() - half);
  rx.Commit(f2.size() - half);
  std::memcpy(&len, rx.Head(), 4);
  ASSERT_EQ(rx.Size(), 4 + len);
  auto v2 = DecodeMessageView(std::string_view(rx.Head() + 4, len));
  ASSERT_TRUE(v2.ok());
  ExpectViewEquals(*v2, m2);
}

TEST(ProtocolView, RejectsWhatDecodeMessageRejects) {
  // Retired batch type codes.
  EXPECT_FALSE(DecodeMessageView(RetiredBatchPayload(7)).ok());
  EXPECT_FALSE(DecodeMessageView(RetiredBatchPayload(8)).ok());
  // Trailing bytes.
  std::string trailing = EncodeMessage(Message{});
  trailing += "x";
  EXPECT_FALSE(DecodeMessageView(trailing).ok());
  // Truncation at every cut.
  std::string whole = EncodeMessage(MakeWrite(7, 1, 2, "value"));
  for (std::size_t cut = 0; cut < whole.size(); ++cut) {
    EXPECT_FALSE(DecodeMessageView(whole.substr(0, cut)).ok())
        << "cut at " << cut;
  }
}

TEST(ProtocolView, FuzzParityWithDecodeMessage) {
  // The two decoders must agree on EVERY input: same accept/reject
  // decision, same decoded fields. Anything else is a protocol fork.
  Rng rng(31337);
  for (int i = 0; i < 4000; ++i) {
    std::string payload;
    if (rng.Below(2) == 0) {
      // Pure garbage.
      const std::size_t len = rng.Below(60);
      for (std::size_t j = 0; j < len; ++j) {
        payload.push_back(static_cast<char>(rng.Below(256)));
      }
    } else {
      // A valid message with a few byte flips — explores the deep
      // rejection branches garbage rarely reaches.
      payload = EncodeMessage(rng.Below(2) == 0 ? MakeRead(i, 0, i)
                                                : MakeWrite(i, 1, i, "xy"));
      const std::size_t flips = rng.Below(3);
      for (std::size_t f = 0; f < flips && !payload.empty(); ++f) {
        payload[rng.Below(payload.size())] =
            static_cast<char>(rng.Below(256));
      }
    }
    auto owned = DecodeMessage(payload);
    auto view = DecodeMessageView(payload);
    ASSERT_EQ(owned.ok(), view.ok()) << "decoders disagree at iter " << i;
    if (owned.ok()) ExpectViewEquals(*view, *owned);
  }
}

// A FramedConn on one end of a socketpair with a small send buffer, so
// a queue of a few hundred KiB parks part-way; the test reads the other
// end to see exactly the byte stream the connection sent.
class ConnPair {
 public:
  ConnPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const int small = 4096;
    ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof small);
    Socket mine(fds[0]);
    peer_ = Socket(fds[1]);
    EXPECT_TRUE(SetNonBlocking(mine).ok());
    EXPECT_TRUE(SetNonBlocking(peer_).ok());
    conn.Reset(std::move(mine));
  }

  /// Queues one write frame per value, referencing the values in place.
  void QueueWrites(const std::vector<std::string>& values,
                   std::uint64_t first_id) {
    FrameWriter w = conn.Writer();
    for (std::size_t i = 0; i < values.size(); ++i) {
      w.BeginFrame();
      AppendPayload(w, MsgType::kWriteReq, first_id + i, RegisterId{0, i},
                    values[i]);
      w.EndFrame();
    }
  }

  /// Flushes, reading the peer end, until the queue drains; returns the
  /// bytes the peer received.
  std::string FlushAll() {
    std::string got;
    for (int i = 0; i < 100000; ++i) {
      const FramedConn::Io io = conn.Flush();
      EXPECT_NE(io, FramedConn::Io::kClosed);
      got += ReadPeer();
      if (io != FramedConn::Io::kParked) break;
    }
    return got + ReadPeer();
  }

  /// Everything the peer end can read right now.
  std::string ReadPeer() {
    std::string got;
    char buf[64 * 1024];
    for (;;) {
      const ssize_t n = ::recv(peer_.fd(), buf, sizeof buf, 0);
      if (n <= 0) return got;
      got.append(buf, static_cast<std::size_t>(n));
    }
  }

  FramedConn conn;

 private:
  Socket peer_;
};

std::vector<std::string> DistinctValues(std::size_t n, std::size_t size) {
  std::vector<std::string> values;
  for (std::size_t i = 0; i < n; ++i) {
    values.emplace_back(size, static_cast<char>('a' + i % 26));
  }
  return values;
}

std::string GoldenWrites(const std::vector<std::string>& values,
                         std::uint64_t first_id) {
  std::string golden;
  for (std::size_t i = 0; i < values.size(); ++i) {
    golden += FramePrefix(
        EncodeMessage(MakeWrite(first_id + i, 0, i, values[i])));
  }
  return golden;
}

TEST(CompactWire, DropsSentPrefixAndDetachesFromValueStorage) {
  // Queue write frames whose values are referenced in place, let the
  // kernel take part of them, then compact: the unsent remainder must
  // live in the connection's own arena, so the values may change or die
  // mid-queue and the peer still receives the original stream.
  ConnPair pair;
  std::vector<std::string> values = DistinctValues(64, 4096);
  const std::string golden = GoldenWrites(values, 1);
  pair.QueueWrites(values, 1);
  ASSERT_EQ(pair.conn.Flush(), FramedConn::Io::kParked);
  EXPECT_TRUE(pair.conn.want_write());
  pair.conn.Compact();
  EXPECT_TRUE(pair.conn.busy());
  for (std::string& v : values) v.assign(v.size(), 'X');
  values.clear();
  values.shrink_to_fit();
  EXPECT_EQ(pair.FlushAll(), golden);
  EXPECT_FALSE(pair.conn.busy());
  EXPECT_FALSE(pair.conn.want_write());
}

TEST(CompactWire, FullySentQueueCompactsToEmpty) {
  ConnPair pair;
  {
    FrameWriter w = pair.conn.Writer();
    w.BeginFrame();
    AppendPayload(w, MsgType::kReadReq, 1, RegisterId{0, 0}, {});
    w.EndFrame();
  }
  ASSERT_EQ(pair.conn.Flush(), FramedConn::Io::kDrained);
  EXPECT_EQ(pair.ReadPeer(), FramePrefix(EncodeMessage(MakeRead(1, 0, 0))));
  // Nothing is left to compact, and nothing is sent twice.
  pair.conn.Compact();
  EXPECT_FALSE(pair.conn.busy());
  EXPECT_EQ(pair.conn.Flush(), FramedConn::Io::kDrained);
  EXPECT_EQ(pair.ReadPeer(), "");
}

TEST(CompactWire, CompactedQueueKeepsFramingAfterMoreAppends) {
  // The steady sequence under backpressure: frame, partial send,
  // compact, frame more. The new frames append after the compacted
  // chunk and the whole stream stays byte-identical to an uncompacted
  // encode.
  ConnPair pair;
  const std::vector<std::string> first = DistinctValues(64, 4096);
  const std::vector<std::string> more = DistinctValues(4, 64);
  pair.QueueWrites(first, 1);
  ASSERT_EQ(pair.conn.Flush(), FramedConn::Io::kParked);
  pair.conn.Compact();
  pair.QueueWrites(more, 100);
  EXPECT_EQ(pair.FlushAll(), GoldenWrites(first, 1) + GoldenWrites(more, 100));
}

TEST(CompactWire, KeptAliveValueOutlivesItsOwner) {
  // A value whose owner lets go while its bytes are still queued (an
  // expired or answered write) is parked until the queue drains.
  ConnPair pair;
  std::vector<std::string> values = DistinctValues(64, 4096);
  const std::string golden = GoldenWrites(values, 1);
  pair.QueueWrites(values, 1);
  ASSERT_EQ(pair.conn.Flush(), FramedConn::Io::kParked);
  for (std::string& v : values) pair.conn.KeepAlive(std::move(v));
  values.clear();
  values.shrink_to_fit();
  EXPECT_EQ(pair.FlushAll(), golden);
}

}  // namespace
}  // namespace nadreg::nad
