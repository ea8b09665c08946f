#include "nad/protocol.h"

#include <sys/uio.h>

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <utility>

#include "common/hotpath_stats.h"

namespace nadreg::nad {

std::string EncodeMessage(const Message& m) {
  std::string out;
  Encoder e(&out);
  e.PutU8(static_cast<std::uint8_t>(m.type));
  e.PutU64(m.request_id);
  switch (m.type) {
    case MsgType::kReadReq:
      e.PutU32(m.reg.disk);
      e.PutU64(m.reg.block);
      break;
    case MsgType::kWriteReq:
    case MsgType::kMergeReq:
      e.PutU32(m.reg.disk);
      e.PutU64(m.reg.block);
      e.PutBytes(m.value);
      break;
    case MsgType::kReadResp:
      e.PutBytes(m.value);
      break;
    case MsgType::kWriteResp:
    case MsgType::kMergeResp:
      break;
    case MsgType::kStatsReq:
      break;
    case MsgType::kStatsResp:
      e.PutBytes(m.value);
      break;
  }
  return out;
}

// ---------------------------------------------------------------------------
// FrameWriter: the zero-copy encode pipeline (see protocol.h).
// ---------------------------------------------------------------------------

char* FrameWriter::HeaderBytes(std::size_t n) {
  char* p = arena_->Alloc(n, 1);
  if (p == open_end_) {
    open_end_ += n;  // contiguous with the open header run: extend it
  } else {
    CloseOpenChunk();
    open_base_ = p;
    open_end_ = p + n;
  }
  payload_bytes_ += n;
  return p;
}

void FrameWriter::CloseOpenChunk() {
  const auto n = static_cast<std::size_t>(open_end_ - open_base_);
  if (n != 0) {
    // Consecutive frames' headers are contiguous in the arena: extend the
    // previous chunk instead of spending another iovec slot on them.
    if (!out_->empty() && out_->back().data + out_->back().len == open_base_) {
      out_->back().len += n;
    } else {
      out_->push_back(WireChunk{open_base_, n});
    }
  }
  open_base_ = open_end_ = nullptr;
}

void FrameWriter::BeginFrame() {
  assert(len_slot_ == nullptr && "BeginFrame without EndFrame");
  len_slot_ = HeaderBytes(4);
  payload_bytes_ = 0;  // the length prefix is not payload
}

std::size_t FrameWriter::EndFrame() {
  assert(len_slot_ != nullptr && "EndFrame without BeginFrame");
  CloseOpenChunk();
  for (int i = 0; i < 4; ++i) {
    len_slot_[i] = static_cast<char>((payload_bytes_ >> (8 * i)) & 0xff);
  }
  len_slot_ = nullptr;
  return payload_bytes_;
}

void FrameWriter::PutU8(std::uint8_t v) {
  *HeaderBytes(1) = static_cast<char>(v);
}

void FrameWriter::PutU32(std::uint32_t v) {
  char* p = HeaderBytes(4);
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

void FrameWriter::PutU64(std::uint64_t v) {
  char* p = HeaderBytes(8);
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

void FrameWriter::PutBytesRef(std::string_view v) {
  // Small values are copied: a source string this size may be SSO and a
  // chunk into its inline buffer would dangle the moment the caller
  // moves it (see kSmallValueCopyBytes) — and the copy is cheaper than
  // a dedicated iovec entry anyway.
  if (v.size() <= kSmallValueCopyBytes) {
    PutBytesCopy(v);
    return;
  }
  PutU32(static_cast<std::uint32_t>(v.size()));
  CloseOpenChunk();
  out_->push_back(WireChunk{v.data(), v.size()});
  payload_bytes_ += v.size();
}

void FrameWriter::PutBytesCopy(std::string_view v) {
  PutU32(static_cast<std::uint32_t>(v.size()));
  if (v.empty()) return;
  hotpath::CountCopy(v.size());
  std::memcpy(HeaderBytes(v.size()), v.data(), v.size());
}

void AppendPayload(FrameWriter& w, MsgType t, std::uint64_t request_id,
                   const RegisterId& reg, std::string_view value) {
  w.PutU8(static_cast<std::uint8_t>(t));
  w.PutU64(request_id);
  switch (t) {
    case MsgType::kReadReq:
      w.PutU32(reg.disk);
      w.PutU64(reg.block);
      break;
    case MsgType::kWriteReq:
    case MsgType::kMergeReq:
      w.PutU32(reg.disk);
      w.PutU64(reg.block);
      w.PutBytesRef(value);
      break;
    case MsgType::kReadResp:
    case MsgType::kStatsResp:
      w.PutBytesRef(value);
      break;
    case MsgType::kWriteResp:
    case MsgType::kMergeResp:
    case MsgType::kStatsReq:
      break;
  }
}

// ---------------------------------------------------------------------------
// Zero-copy decode.
// ---------------------------------------------------------------------------

namespace {

/// True for the type codes this protocol speaks; the retired batch codes
/// (7, 8) and anything out of range are unknown.
bool IsKnownType(std::uint8_t t) {
  switch (static_cast<MsgType>(t)) {
    case MsgType::kReadReq:
    case MsgType::kWriteReq:
    case MsgType::kReadResp:
    case MsgType::kWriteResp:
    case MsgType::kStatsReq:
    case MsgType::kStatsResp:
    case MsgType::kMergeReq:
    case MsgType::kMergeResp:
      return true;
  }
  return false;
}

}  // namespace

Expected<MessageView> DecodeMessageView(std::string_view payload) {
  Decoder d(payload);
  MessageView m;
  auto type = d.GetU8();
  if (!type) return type.status();
  if (!IsKnownType(*type)) return Status::Invalid("message: unknown type");
  m.type = static_cast<MsgType>(*type);
  auto id = d.GetU64();
  if (!id) return id.status();
  m.request_id = *id;

  switch (m.type) {
    case MsgType::kReadReq: {
      auto disk = d.GetU32();
      if (!disk) return disk.status();
      auto block = d.GetU64();
      if (!block) return block.status();
      m.reg = RegisterId{*disk, *block};
      break;
    }
    case MsgType::kWriteReq:
    case MsgType::kMergeReq: {
      auto disk = d.GetU32();
      if (!disk) return disk.status();
      auto block = d.GetU64();
      if (!block) return block.status();
      auto value = d.GetBytesView();
      if (!value) return value.status();
      m.reg = RegisterId{*disk, *block};
      m.value = *value;
      break;
    }
    case MsgType::kReadResp:
    case MsgType::kStatsResp: {
      auto value = d.GetBytesView();
      if (!value) return value.status();
      m.value = *value;
      break;
    }
    case MsgType::kWriteResp:
    case MsgType::kMergeResp:
    case MsgType::kStatsReq:
      break;
  }
  if (!d.AtEnd()) return Status::Invalid("message: trailing bytes");
  return m;
}

Expected<Message> DecodeMessage(std::string_view payload) {
  Decoder d(payload);
  Message m;
  auto type = d.GetU8();
  if (!type) return type.status();
  if (!IsKnownType(*type)) return Status::Invalid("message: unknown type");
  m.type = static_cast<MsgType>(*type);
  auto id = d.GetU64();
  if (!id) return id.status();
  m.request_id = *id;

  switch (m.type) {
    case MsgType::kReadReq: {
      auto disk = d.GetU32();
      if (!disk) return disk.status();
      auto block = d.GetU64();
      if (!block) return block.status();
      m.reg = RegisterId{*disk, *block};
      break;
    }
    case MsgType::kWriteReq:
    case MsgType::kMergeReq: {
      auto disk = d.GetU32();
      if (!disk) return disk.status();
      auto block = d.GetU64();
      if (!block) return block.status();
      auto value = d.GetBytes();
      if (!value) return value.status();
      m.reg = RegisterId{*disk, *block};
      m.value = std::move(*value);
      break;
    }
    case MsgType::kReadResp: {
      auto value = d.GetBytes();
      if (!value) return value.status();
      m.value = std::move(*value);
      break;
    }
    case MsgType::kWriteResp:
    case MsgType::kMergeResp:
      break;
    case MsgType::kStatsReq:
      break;
    case MsgType::kStatsResp: {
      auto value = d.GetBytes();
      if (!value) return value.status();
      m.value = std::move(*value);
      break;
    }
  }
  if (!d.AtEnd()) return Status::Invalid("message: trailing bytes");
  return m;
}

// ---------------------------------------------------------------------------
// FramedConn: the connection core of both ends (see protocol.h).
// ---------------------------------------------------------------------------

namespace {

/// iovecs per sendmsg; a longer queue takes several calls (IOV_MAX is
/// 1024 on Linux).
constexpr std::size_t kMaxIov = 256;
/// Receive granularity when no partial frame says how much is coming.
constexpr std::size_t kRecvBytes = 64 * 1024;
/// Sent-chunk count past which a parked queue is compacted: under
/// sustained partial sends to a slow peer the sent prefix, its arena
/// headers and the zombies would otherwise be reclaimed only when the
/// queue fully drains, which may be never while frames keep coming.
constexpr std::size_t kCompactChunks = 64;

}  // namespace

void FramedConn::KeepAlive(Value&& v) {
  if (busy() && v.size() > kSmallValueCopyBytes) {
    zombies_.push_back(std::move(v));
  }
}

FramedConn::Io FramedConn::Fill() {
  // hot-path-begin(conn-fill)
  std::size_t want = kRecvBytes;
  if (rx_.Size() >= 4) {
    // A partial frame is buffered: make room for all of it at once.
    std::uint32_t len = 0;
    std::memcpy(&len, rx_.Head(), 4);
    const std::size_t frame =
        4 + std::min<std::size_t>(len, kMaxFrameBytes);
    if (frame > rx_.Size()) want = std::max(want, frame - rx_.Size());
  }
  rx_.EnsureTail(want);
  const std::size_t room = rx_.TailCapacity();
  std::size_t got = 0;
  if (!RecvSome(sock_, rx_.Tail(), room, &got).ok()) return Io::kClosed;
  rx_.Commit(got);
  // A short read emptied the socket; the next edge announces more bytes.
  // Once the peer has closed no edge follows, so read on to the close.
  const bool drained = got == 0 || (got < room && !peer_closed_);
  return drained ? Io::kDrained : Io::kMore;
  // hot-path-end
}

FramedConn::Frame FramedConn::FrameAt(std::size_t at,
                                      std::string_view* payload) const {
  // hot-path-begin(conn-next-frame)
  if (rx_.Size() - at < 4) return Frame::kNone;
  std::uint32_t len = 0;
  std::memcpy(&len, rx_.Head() + at, 4);
  if (len > kMaxFrameBytes) return Frame::kBadLength;
  if (rx_.Size() - at - 4 < len) return Frame::kNone;
  *payload = std::string_view(rx_.Head() + at + 4, len);
  return Frame::kReady;
  // hot-path-end
}

std::size_t FramedConn::ReadyFrames() const {
  std::size_t frames = 0;
  std::string_view payload;
  for (std::size_t at = 0; FrameAt(at, &payload) == Frame::kReady;
       at += 4 + payload.size()) {
    ++frames;
  }
  return frames;
}

FramedConn::Io FramedConn::Flush() {
  // hot-path-begin(conn-flush)
  while (head_ < chunks_.size()) {
    // Gather up to kMaxIov spans, the front one past the bytes a partial
    // send already took.
    std::array<iovec, kMaxIov> iov;
    std::size_t iov_count = 0;
    std::size_t skip = off_;
    for (std::size_t i = head_; i < chunks_.size() && iov_count < iov.size();
         ++i) {
      const WireChunk& chunk = chunks_[i];
      iov[iov_count++] =
          iovec{const_cast<char*>(chunk.data) + skip, chunk.len - skip};
      skip = 0;
    }
    std::size_t sent = 0;
    if (!SendSome(sock_, iov.data(), iov_count, &sent).ok()) {
      return Io::kClosed;
    }
    if (sent == 0) {
      // Kernel buffer full: resume on the next EPOLLOUT edge, reclaiming
      // a long sent prefix now rather than at a drain that may not come.
      want_write_ = true;
      if (head_ >= kCompactChunks) Compact();
      return Io::kParked;
    }
    while (sent > 0) {
      const std::size_t remaining = chunks_[head_].len - off_;
      if (sent < remaining) {
        off_ += sent;
        break;
      }
      sent -= remaining;
      ++head_;
      off_ = 0;
    }
  }
  // Everything is in the kernel: nothing references the arena or the
  // zombies anymore.
  ClearQueue();
  want_write_ = false;
  return Io::kDrained;
  // hot-path-end
}

void FramedConn::Compact() {
  // Bounce every unsent byte through scratch_: the arena cannot be Reset
  // while copying out of its own slabs. Afterwards no chunk references
  // the owner's values, so the zombies go too.
  scratch_.clear();
  for (std::size_t i = head_; i < chunks_.size(); ++i) {
    const std::size_t skip = i == head_ ? off_ : 0;
    scratch_.append(chunks_[i].data + skip, chunks_[i].len - skip);
  }
  ClearQueue();
  if (scratch_.empty()) return;
  hotpath::CountCopy(scratch_.size());
  chunks_.push_back(
      WireChunk{arena_.Copy(scratch_.data(), scratch_.size()), scratch_.size()});
}

void FramedConn::Reset(Socket sock) {
  sock_ = std::move(sock);
  rx_.Clear();
  ClearQueue();
  want_write_ = false;
  peer_closed_ = false;
}

void FramedConn::ClearQueue() {
  chunks_.clear();
  head_ = 0;
  off_ = 0;
  arena_.Reset();
  zombies_.clear();
}

Expected<Endpoint> ParseEndpoint(std::string_view s) {
  Endpoint ep;
  std::string_view port_part = s;
  const auto colon = s.rfind(':');
  if (colon != std::string_view::npos) {
    if (colon == 0) return Status::Invalid("endpoint: empty host");
    ep.host = std::string(s.substr(0, colon));
    port_part = s.substr(colon + 1);
  }
  if (port_part.empty()) return Status::Invalid("endpoint: empty port");
  std::uint32_t port = 0;
  for (char c : port_part) {
    if (c < '0' || c > '9') {
      return Status::Invalid("endpoint: port must be numeric");
    }
    port = port * 10 + static_cast<std::uint32_t>(c - '0');
    if (port > 65535) return Status::Invalid("endpoint: port out of range");
  }
  ep.port = static_cast<std::uint16_t>(port);
  return ep;
}

}  // namespace nadreg::nad
