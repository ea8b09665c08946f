#include "common/codec.h"

namespace nadreg {

namespace {

// A name list: varint count, then a (pid, index) varint pair per name.
void PutNames(Encoder& e, const std::vector<Name>& names) {
  e.PutVarint(names.size());
  for (const Name& n : names) {
    e.PutVarint(n.pid);
    e.PutVarint(n.index);
  }
}

Expected<std::vector<Name>> GetNames(Decoder& d) {
  auto count = d.GetVarint();
  if (!count) return count.status();
  // Each name occupies at least 2 bytes; reject counts the buffer cannot
  // hold before reserving (untrusted input must not drive allocation).
  if (*count > d.Remaining() / 2) {
    return Status::Invalid("names: count exceeds buffer");
  }
  std::vector<Name> names;
  names.reserve(*count);
  for (std::uint64_t i = 0; i < *count; ++i) {
    auto pid = d.GetVarint();
    if (!pid) return pid.status();
    auto index = d.GetVarint();
    if (!index) return index.status();
    names.push_back(Name{*pid, *index});
  }
  return names;
}

}  // namespace

std::string EncodeTaggedValue(const TaggedValue& tv) {
  std::string out;
  Encoder e(&out);
  e.PutU64(tv.writer);
  e.PutU64(tv.seq);
  e.PutBytes(tv.payload);
  return out;
}

Expected<TaggedValue> DecodeTaggedValue(std::string_view bytes) {
  if (bytes.empty()) return TaggedValue{};  // register initial value
  Decoder d(bytes);
  TaggedValue tv;
  auto writer = d.GetU64();
  if (!writer) return writer.status();
  auto seq = d.GetU64();
  if (!seq) return seq.status();
  auto payload = d.GetBytes();
  if (!payload) return payload.status();
  if (!d.AtEnd()) return Status::Invalid("TaggedValue: trailing bytes");
  tv.writer = *writer;
  tv.seq = *seq;
  tv.payload = std::move(*payload);
  return tv;
}

std::string EncodeName(const Name& n) {
  std::string out;
  Encoder e(&out);
  e.PutU64(n.pid);
  e.PutU64(n.index);
  return out;
}

Expected<Name> DecodeName(std::string_view bytes) {
  Decoder d(bytes);
  auto pid = d.GetU64();
  if (!pid) return pid.status();
  auto index = d.GetU64();
  if (!index) return index.status();
  if (!d.AtEnd()) return Status::Invalid("Name: trailing bytes");
  return Name{*pid, *index};
}

std::string EncodeNameSet(const std::vector<Name>& names) {
  std::string out;
  Encoder e(&out);
  PutNames(e, names);
  return out;
}

Expected<std::vector<Name>> DecodeNameSet(std::string_view bytes) {
  Decoder d(bytes);
  auto names = GetNames(d);
  if (!names) return names.status();
  if (!d.AtEnd()) return Status::Invalid("NameSet: trailing bytes");
  return names;
}

std::string EncodeSnapRecord(const SnapRecord& rec) {
  std::string out;
  Encoder e(&out);
  e.PutBytes(rec.value);
  PutNames(e, rec.snapshot);
  return out;
}

Expected<SnapRecord> DecodeSnapRecord(std::string_view bytes) {
  Decoder d(bytes);
  SnapRecord rec;
  auto value = d.GetBytes();
  if (!value) return value.status();
  rec.value = std::move(*value);
  auto snapshot = GetNames(d);
  if (!snapshot) return snapshot.status();
  rec.snapshot = std::move(*snapshot);
  if (!d.AtEnd()) return Status::Invalid("SnapRecord: trailing bytes");
  return rec;
}

}  // namespace nadreg
