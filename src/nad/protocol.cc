#include "nad/protocol.h"

#include <cassert>
#include <cstring>

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

std::size_t EncodedMessageSize(const Message& m) {
  std::size_t n = 1 + 8;  // type + request id
  switch (m.type) {
    case MsgType::kReadReq:
      n += 4 + 8;
      break;
    case MsgType::kWriteReq:
    case MsgType::kMergeReq:
      n += 4 + 8 + 4 + m.value.size();
      break;
    case MsgType::kReadResp:
    case MsgType::kStatsResp:
      n += 4 + m.value.size();
      break;
    case MsgType::kWriteResp:
    case MsgType::kMergeResp:
    case MsgType::kStatsReq:
      break;
  }
  return n;
}

Expected<std::string> EncodeMessageChecked(const Message& m) {
  // Size check FIRST: an oversized message (a write value near the cap)
  // fails fast without materializing the multi-megabyte encode it would
  // then throw away.
  const std::size_t size = EncodedMessageSize(m);
  if (size > kMaxFrameBytes) {
    return Status::Invalid("message: encoded payload of " +
                           std::to_string(size) +
                           " bytes exceeds frame cap of " +
                           std::to_string(kMaxFrameBytes));
  }
  return EncodeMessage(m);
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

void CompactWire(std::vector<WireChunk>* wire, std::size_t* head,
                 std::size_t* off, Arena* arena, std::string* scratch) {
  assert(*head < wire->size() || *off == 0);
  // Bounce every unsent byte through `scratch`: the arena cannot be
  // Reset while copying directly out of its own slabs.
  scratch->clear();
  for (std::size_t i = *head; i < wire->size(); ++i) {
    const WireChunk& c = (*wire)[i];
    const std::size_t skip = i == *head ? *off : 0;
    scratch->append(c.data + skip, c.len - skip);
  }
  wire->clear();
  *head = 0;
  *off = 0;
  arena->Reset();
  if (scratch->empty()) return;
  hotpath::CountCopy(scratch->size());
  char* base = arena->Copy(scratch->data(), scratch->size());
  wire->push_back(WireChunk{base, scratch->size()});
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
