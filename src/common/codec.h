/// \file
/// Binary serialization for the records the emulation algorithms store in
/// disk blocks, and for the TCP NAD wire protocol.
///
/// Encoding is little-endian fixed width with length-prefixed byte strings;
/// name lists (snapshot views, Fig. 3 records) use LEB128 varints, so a
/// name costs a few bytes instead of a fixed 16.
/// All decode paths are total: they return Expected<> and never read past
/// the end of the buffer (disk blocks and network bytes are untrusted).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace nadreg {

/// Appends primitive values to a byte buffer.
class Encoder {
 public:
  explicit Encoder(std::string* out) : out_(out) {}

  void PutU8(std::uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void PutU32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
  void PutU64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
  /// Unsigned LEB128 varint: 7 bits per byte, high bit = more follows.
  void PutVarint(std::uint64_t v) {
    for (; v >= 0x80; v >>= 7) out_->push_back(static_cast<char>((v & 0x7f) | 0x80));
    out_->push_back(static_cast<char>(v));
  }
  /// Length-prefixed byte string (u32 length).
  void PutBytes(std::string_view s) {
    PutU32(static_cast<std::uint32_t>(s.size()));
    out_->append(s.data(), s.size());
  }

 private:
  std::string* out_;
};

/// Reads primitive values from a byte buffer; all reads are bounds-checked.
class Decoder {
 public:
  explicit Decoder(std::string_view in) : in_(in) {}

  bool AtEnd() const { return pos_ == in_.size(); }
  std::size_t Remaining() const { return in_.size() - pos_; }

  Expected<std::uint8_t> GetU8() {
    if (Remaining() < 1) return Status::Invalid("decode: truncated u8");
    return static_cast<std::uint8_t>(in_[pos_++]);
  }
  Expected<std::uint32_t> GetU32() {
    if (Remaining() < 4) return Status::Invalid("decode: truncated u32");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(in_[pos_ + i])) << (8 * i);
    pos_ += 4;
    return v;
  }
  Expected<std::uint64_t> GetU64() {
    if (Remaining() < 8) return Status::Invalid("decode: truncated u64");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(in_[pos_ + i])) << (8 * i);
    pos_ += 8;
    return v;
  }
  /// Unsigned LEB128 varint; rejects truncation and values past 64 bits.
  Expected<std::uint64_t> GetVarint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (Remaining() < 1) return Status::Invalid("decode: truncated varint");
      const auto byte = static_cast<std::uint8_t>(in_[pos_++]);
      if (shift == 63 && byte > 1) return Status::Invalid("decode: varint overflow");
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return v;
    }
    return Status::Invalid("decode: varint overflow");
  }
  Expected<std::string> GetBytes() {
    auto len = GetU32();
    if (!len) return len.status();
    if (Remaining() < *len) return Status::Invalid("decode: truncated bytes");
    std::string s(in_.substr(pos_, *len));
    pos_ += *len;
    return s;
  }
  /// Zero-copy variant of GetBytes: the returned view aliases the
  /// decoder's input buffer and is valid only as long as that buffer
  /// lives unmodified.
  Expected<std::string_view> GetBytesView() {
    auto len = GetU32();
    if (!len) return len.status();
    if (Remaining() < *len) return Status::Invalid("decode: truncated bytes");
    std::string_view s = in_.substr(pos_, *len);
    pos_ += *len;
    return s;
  }

 private:
  std::string_view in_;
  std::size_t pos_ = 0;
};

/// (writer, sequence number, payload) — the record written to base
/// registers by the SWSR/SWMR/MWSR emulations (Sections 3.2, 4.2, Fig. 2).
struct TaggedValue {
  ProcessId writer = kNoProcess;
  SeqNum seq = 0;  // 0 means "initial value, never written"
  std::string payload;

  friend bool operator==(const TaggedValue&, const TaggedValue&) = default;

  /// True if this record is fresher than `other` for the *same* writer.
  bool FresherThan(const TaggedValue& other) const { return seq > other.seq; }
};

std::string EncodeTaggedValue(const TaggedValue& tv);
/// Decodes a register value. The empty string (register initial value)
/// decodes to the default TaggedValue (seq 0).
[[nodiscard]] Expected<TaggedValue> DecodeTaggedValue(std::string_view bytes);

/// The record the Fig. 3 MWMR construction stores in the one-shot register
/// v[p]: the written value plus the name-snapshot taken by the WRITE.
struct SnapRecord {
  std::string value;
  std::vector<Name> snapshot;  // kept sorted ascending

  friend bool operator==(const SnapRecord&, const SnapRecord&) = default;
};

std::string EncodeSnapRecord(const SnapRecord& rec);
[[nodiscard]] Expected<SnapRecord> DecodeSnapRecord(std::string_view bytes);

std::string EncodeName(const Name& n);
[[nodiscard]] Expected<Name> DecodeName(std::string_view bytes);

/// A plain set of names (kept sorted ascending) — the payload of a
/// published snapshot view.
std::string EncodeNameSet(const std::vector<Name>& names);
[[nodiscard]] Expected<std::vector<Name>> DecodeNameSet(std::string_view bytes);

}  // namespace nadreg
