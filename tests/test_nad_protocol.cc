// Unit tests for the NAD wire protocol: roundtrips of all message
// types, runs of per-op frames (what one writev or one server burst
// carries), rejection of malformed payloads and of the retired batch
// type codes, fuzz totality — and the zero-copy surface (FrameWriter /
// DecodeMessageView / FrameReader) checked byte-for-byte against the
// materializing EncodeMessage/DecodeMessage golden pair.
#include "nad/protocol.h"

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <cstring>
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

TEST(Protocol, CheckedEncodeRejectsOversizedWrite) {
  // A write whose frame would blow the cap fails fast with kInvalid on
  // the encode path — it must never hit the wire and desynchronize or
  // kill the connection at the server's decode guard.
  Message big = MakeWrite(1, 0, 0, std::string(kMaxFrameBytes, 'x'));
  auto encoded = EncodeMessageChecked(big);
  ASSERT_FALSE(encoded.ok());
  EXPECT_EQ(encoded.status().code(), StatusCode::kInvalid);
}

TEST(Protocol, CheckedEncodeAcceptsLargestFramableWrite) {
  Message fits =
      MakeWrite(1, 0, 0, std::string(kMaxFrameBytes - kWriteReqOverhead, 'x'));
  auto encoded = EncodeMessageChecked(fits);
  ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
  EXPECT_EQ(encoded->size(), kMaxFrameBytes);
  // One byte more can never be framed.
  Message over = MakeWrite(
      1, 0, 0, std::string(kMaxFrameBytes - kWriteReqOverhead + 1, 'x'));
  EXPECT_FALSE(EncodeMessageChecked(over).ok());
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
    EXPECT_EQ(payload_len, EncodedMessageSize(m));
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

TEST(CompactWire, DropsSentPrefixAndDetachesFromValueStorage) {
  // Queue two write frames, pretend the kernel accepted the first frame
  // and part of the second, then compact: the unsent remainder must be
  // byte-identical, live entirely in the arena (one chunk, head/off
  // rewound), and no longer reference the caller's value storage — so
  // the values (and any zombies) can be freed mid-queue.
  Arena arena;
  std::vector<WireChunk> wire;
  std::string v1(512, 'a');
  std::string v2(512, 'b');
  FrameWriter w(&arena, &wire);
  w.BeginFrame();
  AppendPayload(w, MsgType::kWriteReq, 1, RegisterId{0, 0}, v1);
  w.EndFrame();
  w.BeginFrame();
  AppendPayload(w, MsgType::kWriteReq, 2, RegisterId{0, 1}, v2);
  w.EndFrame();
  const std::string all = Flatten(wire);

  // Frame 1 is 3 chunks (header run, value, trailing header run of
  // frame 2's begin may merge — compute the split by bytes instead):
  // mark 2 whole chunks + 10 bytes of the third as sent.
  ASSERT_GE(wire.size(), 3u);
  std::size_t head = 2;
  std::size_t off = 10;
  std::size_t sent_bytes = wire[0].len + wire[1].len + off;
  const std::string expect_rest = all.substr(sent_bytes);

  std::string scratch;
  CompactWire(&wire, &head, &off, &arena, &scratch);
  EXPECT_EQ(head, 0u);
  EXPECT_EQ(off, 0u);
  ASSERT_EQ(wire.size(), 1u);
  EXPECT_EQ(Flatten(wire), expect_rest);
  EXPECT_FALSE(AnyChunkAliases(wire, v1));
  EXPECT_FALSE(AnyChunkAliases(wire, v2));
  // The values may now die; the compacted bytes must not change.
  v1.assign(512, 'X');
  v2.clear();
  v2.shrink_to_fit();
  EXPECT_EQ(Flatten(wire), expect_rest);
}

TEST(CompactWire, FullySentQueueCompactsToEmpty) {
  Arena arena;
  std::vector<WireChunk> wire;
  FrameWriter w(&arena, &wire);
  w.BeginFrame();
  AppendPayload(w, MsgType::kReadReq, 1, RegisterId{0, 0}, {});
  w.EndFrame();
  std::size_t head = wire.size();
  std::size_t off = 0;
  std::string scratch;
  CompactWire(&wire, &head, &off, &arena, &scratch);
  EXPECT_TRUE(wire.empty());
  EXPECT_EQ(head, 0u);
  EXPECT_EQ(off, 0u);
}

TEST(CompactWire, CompactedQueueKeepsFramingAfterMoreAppends) {
  // The steady sequence under backpressure: frame, partial send,
  // compact, frame more. The new frames append after the compacted
  // chunk and the whole stream stays byte-identical to an uncompacted
  // encode.
  Arena arena;
  std::vector<WireChunk> wire;
  const std::string v1(64, 'p');
  const std::string v2(64, 'q');
  {
    FrameWriter w(&arena, &wire);
    w.BeginFrame();
    AppendPayload(w, MsgType::kWriteReq, 1, RegisterId{0, 0}, v1);
    w.EndFrame();
  }
  const std::string f1 = Flatten(wire);
  std::size_t head = 0;
  std::size_t off = 7;  // mid-length-prefix partial send
  std::string scratch;
  CompactWire(&wire, &head, &off, &arena, &scratch);
  {
    FrameWriter w(&arena, &wire);
    w.BeginFrame();
    AppendPayload(w, MsgType::kWriteReq, 2, RegisterId{0, 1}, v2);
    w.EndFrame();
  }
  const std::string f2 =
      FramePrefix(EncodeMessage(MakeWrite(2, 0, 1, v2)));
  EXPECT_EQ(Flatten(wire), f1.substr(7) + f2);
}

TEST(Protocol, EncodedMessageSizeMatchesEncodeMessage) {
  std::vector<Message> cases;
  cases.push_back(MakeRead(1, 0, 2));
  cases.push_back(MakeWrite(2, 1, 3, "value bytes"));
  Message stats;
  stats.type = MsgType::kStatsResp;
  stats.request_id = 9;
  stats.value = "text";
  cases.push_back(stats);
  cases.push_back(Message{});
  for (const Message& m : cases) {
    EXPECT_EQ(EncodedMessageSize(m), EncodeMessage(m).size())
        << "type " << static_cast<int>(m.type);
  }
}

TEST(FrameReader, HasFrameOnlyForCompleteBufferedFrames) {
  // The server sizes a burst with HasFrame: a run of frames delivered in
  // pieces must report a next frame exactly when one is fully buffered,
  // and Next must then return it without blocking.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Socket reader_end(fds[0]);
  Socket writer_end(fds[1]);
  const std::string f1 = FramePrefix(EncodeMessage(MakeRead(1, 0, 0)));
  const std::string f2 = FramePrefix(EncodeMessage(MakeWrite(2, 0, 1, "v")));
  // The first frame and half of the second arrive together.
  const std::size_t half = f2.size() / 2;
  ASSERT_TRUE(SendAll(writer_end, f1 + f2.substr(0, half)).ok());
  FrameReader reader;
  EXPECT_FALSE(reader.HasFrame());  // nothing received yet
  auto p1 = reader.Next(reader_end, kMaxFrameBytes);
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(*DecodeMessage(*p1), MakeRead(1, 0, 0));
  EXPECT_FALSE(reader.HasFrame()) << "a torn frame counted as buffered";
  ASSERT_TRUE(SendAll(writer_end, f2.substr(half)).ok());
  auto p2 = reader.Next(reader_end, kMaxFrameBytes);  // blocks for the rest
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(*DecodeMessage(*p2), MakeWrite(2, 0, 1, "v"));
  EXPECT_FALSE(reader.HasFrame());
  // Two whole frames in one write: after the first, the second is
  // already buffered.
  ASSERT_TRUE(SendAll(writer_end, f1 + f2).ok());
  ASSERT_TRUE(reader.Next(reader_end, kMaxFrameBytes).ok());
  EXPECT_TRUE(reader.HasFrame());
  ASSERT_TRUE(reader.Next(reader_end, kMaxFrameBytes).ok());
  EXPECT_FALSE(reader.HasFrame());
}

}  // namespace
}  // namespace nadreg::nad
