/// \file
/// Deterministic block-address layout on the disks — the "on-disk format"
/// of the emulated objects. Every process must compute identical addresses
/// without coordination (uniformity), so the layout is a pure function.
///
/// A BlockId is a 64-bit LBA, carved as
///
///     [ object : 10 bits ][ component : 4 bits ][ key : 50 bits ]
///
/// * object    — which emulated object instance (an application-chosen id);
/// * component — which part of the object's on-disk structure;
/// * key       — component-specific: a packed Name for per-name registers,
///               or a heap-encoded trie node for the name-directory bits.
///
/// Name packing: Name{pid, index} packs into 48 bits as (pid:32 | index:16).
/// This is an *addressing* discipline, not a model restriction: the model's
/// namespace is unbounded; a 64-bit LBA (like a real disk's) simply bounds
/// how many distinct names one deployment can address, exactly as a real
/// disk bounds how many blocks it can address.
///
/// Trie paths: a name's directory path is not its packed bits but a
/// prefix-free codeword of them (NameLayout::Path), as long as the name's
/// significant bits. With N = name_bits and w = bit_width(N):
///
///     short form: 0 | L : w bits | the L-1 bits below the leading one
///     long form:  1 | the packed name : N bits
///
/// where L = bit_width(packed). The short form is used exactly when it is
/// strictly shorter, so every name has one codeword, no codeword is a
/// prefix of another, and no path is longer than N + 1 levels (49 for the
/// default layout, so every trie node fits the 50-bit key).
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <optional>

#include "common/types.h"

namespace nadreg::core {

enum class Component : std::uint8_t {
  kFixed = 0,     // the single block of a finite-register algorithm
  kTrieMark = 1,  // name-directory sticky bit (heap-encoded trie node)
  kView = 2,      // published snapshot view of a name (one-shot)
  kValue = 3,      // Fig. 3 one-shot v[name]
  kScratch = 4,    // application use
  kCodedCell = 5,  // erasure-coded cell (tagged fragments, core/coded)
};

/// A name's trie path: its codeword's `length` bits, MSB first, in the low
/// bits of `bits`.
struct TriePath {
  std::uint64_t bits = 0;
  int length = 0;

  /// The heap-encoded trie node at `depth` (0 = root) along the path.
  std::uint64_t Node(int depth) const {
    return (1ULL << depth) | (bits >> (length - depth));
  }
  std::uint64_t Leaf() const { return Node(length); }
};

/// How Names map onto trie paths: `name_bits` is the packed width,
/// `index_bits` how many low bits hold Name::index (the rest hold
/// Name::pid). The default reproduces the deployment layout above.
/// Smaller layouts exist for bounded model checking: the paper's trie
/// serves an *unbounded* namespace, but a checked scenario draws from a
/// known finite set of names, and a trie deeper than log2 of that set only
/// multiplies every announce/collect by dozens of base operations without
/// adding behaviors. All endpoints of one emulated object must agree on
/// the layout (it is part of the on-disk format, like `object` itself).
struct NameLayout {
  int name_bits = 48;
  int index_bits = 16;

  std::uint64_t Pack(const Name& n) const {
    assert(index_bits < name_bits && name_bits <= 48 &&
           "NameLayout: widths out of range");
    assert(n.index < (1ULL << index_bits) &&
           "NameLayout: index exceeds addressing width");
    assert(n.pid < (1ULL << (name_bits - index_bits)) &&
           "NameLayout: pid exceeds addressing width");
    return (n.pid << index_bits) | n.index;
  }
  Name Unpack(std::uint64_t packed) const {
    return Name{packed >> index_bits, packed & ((1ULL << index_bits) - 1)};
  }

  /// The trie path of `n` (the prefix-free code in the file comment).
  TriePath Path(const Name& n) const {
    const std::uint64_t packed = Pack(n);
    const int len = std::bit_width(packed);
    if (!ShortForm(len)) {
      return TriePath{(1ULL << name_bits) | packed, 1 + name_bits};
    }
    const int payload = std::max(len - 1, 0);
    return TriePath{(static_cast<std::uint64_t>(len) << payload) |
                        (packed & Mask(payload)),
                    1 + LengthBits() + payload};
  }

  /// The name whose codeword ends at trie node `node`, if any. A leaf is
  /// never an inner node of another codeword (the code is prefix-free).
  std::optional<Name> LeafName(std::uint64_t node) const {
    const int depth = std::bit_width(node) - 1;
    if (depth < 1) return std::nullopt;
    const int rest = depth - 1;  // bits after the form tag
    const std::uint64_t bits = node & Mask(rest);
    if ((node >> rest & 1) != 0) {  // long form
      if (rest != name_bits || ShortForm(std::bit_width(bits))) {
        return std::nullopt;
      }
      return Unpack(bits);
    }
    const int w = LengthBits();
    if (rest < w) return std::nullopt;
    const int len = static_cast<int>(bits >> (rest - w));
    if (!ShortForm(len) || rest - w != std::max(len - 1, 0)) {
      return std::nullopt;
    }
    if (len == 0) return Unpack(0);
    return Unpack((1ULL << (len - 1)) | (bits & Mask(len - 1)));
  }

  /// Whether some codeword passes through (or ends at) trie node `node`.
  /// A node off every codeword is never marked, so a collect skips it.
  bool OnSomePath(std::uint64_t node) const {
    const int depth = std::bit_width(node) - 1;
    if (depth < 1) return true;
    const int rest = depth - 1;
    const std::uint64_t bits = node & Mask(rest);
    if ((node >> rest & 1) != 0) {  // long form: some completion is long
      if (rest > name_bits) return false;
      const int free = name_bits - rest;
      return !ShortForm(std::bit_width((bits << free) | Mask(free)));
    }
    const int w = LengthBits();
    if (rest <= w) {  // inside the length field: its least completion
      return ShortForm(static_cast<int>(bits << (w - rest)));
    }
    const int len = static_cast<int>(bits >> (rest - w));
    return ShortForm(len) && rest - w <= std::max(len - 1, 0);
  }

 private:
  static std::uint64_t Mask(int k) { return (1ULL << k) - 1; }
  /// Width of the short form's length field.
  int LengthBits() const { return std::bit_width(unsigned(name_bits)); }
  /// A packed name of bit width `len` takes the short form: it is
  /// strictly shorter than the long one. Decreasing in `len`.
  bool ShortForm(int len) const {
    return LengthBits() + std::max(len - 1, 0) < name_bits;
  }
};

/// Packs a Name into 48 bits. Precondition: pid < 2^32 and index < 2^16.
inline std::uint64_t PackName(const Name& n) { return NameLayout{}.Pack(n); }

inline Name UnpackName(std::uint64_t packed) {
  return NameLayout{}.Unpack(packed);
}

/// Heap encoding of a binary-trie node: root is 1, child(x, bit) = 2x+bit.
/// Depth up to 49 fits in 50 bits (indices below 2^50).
inline std::uint64_t TrieRoot() { return 1; }
inline std::uint64_t TrieChild(std::uint64_t node, unsigned bit) {
  assert(bit <= 1);
  return node * 2 + bit;
}

/// Composes a BlockId from (object, component, key).
inline BlockId MakeBlock(std::uint32_t object, Component component,
                         std::uint64_t key) {
  assert(object < (1u << 10) && "MakeBlock: object id exceeds 10 bits");
  assert(key < (1ULL << 50) && "MakeBlock: key exceeds 50 bits");
  return (static_cast<std::uint64_t>(object) << 54) |
         (static_cast<std::uint64_t>(component) << 50) | key;
}

}  // namespace nadreg::core
