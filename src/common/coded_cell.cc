#include "common/coded_cell.h"

#include <algorithm>
#include <array>

#include "common/codec.h"

namespace nadreg {

namespace {

// Leading magic bytes keep cells and the two delta kinds self-describing:
// a merge handed the wrong record kind fails the decode instead of
// misinterpreting bytes.
constexpr std::uint8_t kCellMagic = 0xC0;
constexpr std::uint8_t kPutMagic =
    static_cast<std::uint8_t>(CodedDelta::Kind::kPut);
constexpr std::uint8_t kCommitMagic =
    static_cast<std::uint8_t>(CodedDelta::Kind::kCommit);

/// Slicing-by-8 tables for the reflected polynomial 0xEDB88320: t[0] is
/// the classic bytewise table, and t[j][b] is the CRC update of byte b
/// followed by j zero bytes, so eight lookups fold eight input bytes.
struct CrcTables {
  std::array<std::array<std::uint32_t, 256>, 8> t{};

  CrcTables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int b = 0; b < 8; ++b) {
        c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (std::size_t j = 1; j < 8; ++j) {
      for (std::size_t i = 0; i < 256; ++i) {
        t[j][i] = (t[j - 1][i] >> 8) ^ t[0][t[j - 1][i] & 0xff];
      }
    }
  }
};

const CrcTables& Crc() {
  static const CrcTables tables;
  return tables;
}

std::uint32_t LoadLe32(const unsigned char* p) {
  return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
         std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

void PutTag(Encoder& e, const CodedTag& t) {
  e.PutU64(t.seq);
  e.PutU64(t.writer);
}

Expected<CodedTag> GetTag(Decoder& d) {
  auto seq = d.GetU64();
  if (!seq) return seq.status();
  auto writer = d.GetU64();
  if (!writer) return writer.status();
  return CodedTag{*seq, *writer};
}

void PutFragment(Encoder& e, const CodedFragment& f) {
  PutTag(e, f.tag);
  e.PutU8(f.index);
  e.PutU8(f.n);
  e.PutU8(f.k);
  e.PutU32(f.value_size);
  e.PutU32(f.crc);
  e.PutBytes(f.bytes);
}

/// Parses one fragment; with `copy_bytes` false the payload is checked
/// and skipped but not copied (f.bytes stays empty).
Expected<CodedFragment> GetFragment(Decoder& d, bool copy_bytes = true) {
  CodedFragment f;
  auto tag = GetTag(d);
  if (!tag) return tag.status();
  f.tag = *tag;
  auto index = d.GetU8();
  if (!index) return index.status();
  f.index = *index;
  auto n = d.GetU8();
  if (!n) return n.status();
  f.n = *n;
  auto k = d.GetU8();
  if (!k) return k.status();
  f.k = *k;
  auto value_size = d.GetU32();
  if (!value_size) return value_size.status();
  f.value_size = *value_size;
  auto crc = d.GetU32();
  if (!crc) return crc.status();
  f.crc = *crc;
  auto bytes = d.GetBytesView();
  if (!bytes) return bytes.status();
  if (copy_bytes) f.bytes.assign(*bytes);
  return f;
}

/// Inserts or replaces the fragment for `f.tag`, keeping `frags` sorted by
/// tag ascending. Same-tag replacement is idempotent: a tag names one
/// write, and one write sends one fragment per disk.
void UpsertFragment(std::vector<CodedFragment>& frags, CodedFragment f) {
  auto it = std::lower_bound(
      frags.begin(), frags.end(), f.tag,
      [](const CodedFragment& a, const CodedTag& t) { return a.tag < t; });
  if (it != frags.end() && it->tag == f.tag) {
    *it = std::move(f);
  } else {
    frags.insert(it, std::move(f));
  }
}

/// Enforces the cell invariants after a merge step: drop fragments below
/// the committed tag (prune-on-commit), then cap the uncommitted suffix at
/// kMaxPendingTags by evicting the lowest uncommitted tags. Evicting an
/// uncommitted fragment is safe even if its Put already reached a write
/// quorum elsewhere: the commit that later arrives for it carries the
/// fragment and re-installs it (MergeCodedCell, kCommit).
void Normalize(CodedCell& cell) {
  std::erase_if(cell.frags, [&](const CodedFragment& f) {
    return f.tag < cell.committed;
  });
  std::size_t pending = 0;
  for (const CodedFragment& f : cell.frags) {
    if (f.tag > cell.committed) ++pending;
  }
  if (pending <= CodedCell::kMaxPendingTags) return;
  // frags is tag-ascending, so the lowest uncommitted tags come first
  // (after the at-most-one committed entry).
  std::size_t evict = pending - CodedCell::kMaxPendingTags;
  std::erase_if(cell.frags, [&](const CodedFragment& f) {
    if (evict == 0 || f.tag <= cell.committed) return false;
    --evict;
    return true;
  });
}

}  // namespace

std::uint32_t Crc32(std::string_view bytes) {
  const auto& t = Crc().t;
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t n = bytes.size();
  std::uint32_t c = 0xffffffffu;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ LoadLe32(p);
    const std::uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
        t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
        t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xff] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

namespace detail {

std::uint32_t Crc32Bytewise(std::string_view bytes) {
  const auto& table = Crc().t[0];
  std::uint32_t c = 0xffffffffu;
  for (unsigned char ch : bytes) c = table[(c ^ ch) & 0xff] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

}  // namespace detail

std::string EncodeCodedCell(const CodedCell& cell) {
  std::string out;
  Encoder e(&out);
  e.PutU8(kCellMagic);
  PutTag(e, cell.committed);
  e.PutU32(static_cast<std::uint32_t>(cell.frags.size()));
  for (const CodedFragment& f : cell.frags) PutFragment(e, f);
  return out;
}

Expected<CodedCell> DecodeCodedCell(std::string_view bytes) {
  if (bytes.empty()) return CodedCell{};
  Decoder d(bytes);
  auto magic = d.GetU8();
  if (!magic) return magic.status();
  if (*magic != kCellMagic) return Status::Invalid("coded cell: bad magic");
  CodedCell cell;
  auto committed = GetTag(d);
  if (!committed) return committed.status();
  cell.committed = *committed;
  auto count = d.GetU32();
  if (!count) return count.status();
  // Each fragment costs >= 31 wire bytes (16 tag + 3 geometry + 4 size +
  // 4 crc + 4 length prefix) even with empty payload bytes; the bound
  // rejects a hostile count before any preallocation.
  constexpr std::uint32_t kFragmentWireMinBytes = 31;
  if (*count > d.Remaining() / kFragmentWireMinBytes) {
    return Status::Invalid("coded cell: fragment count exceeds buffer");
  }
  cell.frags.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto f = GetFragment(d);
    if (!f) return f.status();
    cell.frags.push_back(std::move(*f));
  }
  if (!d.AtEnd()) return Status::Invalid("coded cell: trailing bytes");
  return cell;
}

std::string EncodeCodedPut(const CodedFragment& frag) {
  std::string out;
  Encoder e(&out);
  e.PutU8(kPutMagic);
  PutFragment(e, frag);
  return out;
}

std::string EncodeCodedCommit(const CodedTag& tag) {
  std::string out;
  Encoder e(&out);
  e.PutU8(kCommitMagic);
  e.PutU8(0);  // no fragment
  PutTag(e, tag);
  return out;
}

std::string EncodeCodedCommit(const CodedFragment& frag) {
  std::string out;
  Encoder e(&out);
  e.PutU8(kCommitMagic);
  e.PutU8(1);  // fragment follows; the committed tag is the fragment's
  PutFragment(e, frag);
  return out;
}

namespace {

/// DecodeCodedDelta, optionally without copying the fragment payload
/// (it accepts and rejects exactly the same inputs either way).
Expected<CodedDelta> ParseCodedDelta(std::string_view bytes, bool copy_bytes) {
  Decoder d(bytes);
  auto magic = d.GetU8();
  if (!magic) return magic.status();
  CodedDelta delta;
  if (*magic == kPutMagic) {
    delta.kind = CodedDelta::Kind::kPut;
    auto f = GetFragment(d, copy_bytes);
    if (!f) return f.status();
    delta.frag = std::move(*f);
  } else if (*magic == kCommitMagic) {
    delta.kind = CodedDelta::Kind::kCommit;
    auto has_frag = d.GetU8();
    if (!has_frag) return has_frag.status();
    if (*has_frag == 0) {
      auto t = GetTag(d);
      if (!t) return t.status();
      delta.tag = *t;
    } else if (*has_frag == 1) {
      auto f = GetFragment(d, copy_bytes);
      if (!f) return f.status();
      delta.tag = f->tag;
      delta.frag = std::move(*f);
      delta.has_frag = true;
    } else {
      return Status::Invalid("coded delta: bad commit flag");
    }
  } else {
    return Status::Invalid("coded delta: bad magic");
  }
  if (!d.AtEnd()) return Status::Invalid("coded delta: trailing bytes");
  return delta;
}

}  // namespace

Expected<CodedDelta> DecodeCodedDelta(std::string_view bytes) {
  return ParseCodedDelta(bytes, /*copy_bytes=*/true);
}

bool CodedDeltaSubsumes(std::string_view later, std::string_view earlier) {
  auto l = ParseCodedDelta(later, /*copy_bytes=*/false);
  auto e = ParseCodedDelta(earlier, /*copy_bytes=*/false);
  if (!l.ok() || !e.ok()) return false;
  const CodedTag e_tag =
      e->kind == CodedDelta::Kind::kPut ? e->frag.tag : e->tag;
  return l->kind == CodedDelta::Kind::kCommit && l->has_frag &&
         e_tag <= l->tag;
}

Value MergeCodedCell(const Value& current, std::string_view delta) {
  // Total on corrupt input: a cell that no longer decodes (disk
  // corruption) resets to empty rather than wedging the register forever;
  // a delta that does not decode is a no-op.
  CodedCell cell;
  if (auto cur = DecodeCodedCell(current); cur.ok()) cell = std::move(*cur);
  auto d = DecodeCodedDelta(delta);
  if (!d.ok()) return current;
  switch (d->kind) {
    case CodedDelta::Kind::kPut:
      if (d->frag.tag >= cell.committed) {
        UpsertFragment(cell.frags, std::move(d->frag));
      }
      break;
    case CodedDelta::Kind::kCommit:
      cell.committed = std::max(cell.committed, d->tag);
      // Re-install the carried fragment: the commit itself guarantees
      // its tag is decodable at this disk even when the pending cap
      // evicted the Put's fragment before the commit arrived — the
      // tag-completeness invariant's one fragment-restoring rule.
      if (d->has_frag && d->frag.tag >= cell.committed) {
        UpsertFragment(cell.frags, std::move(d->frag));
      }
      break;
  }
  Normalize(cell);
  return EncodeCodedCell(cell);
}

}  // namespace nadreg
