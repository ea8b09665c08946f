/// \file
/// The per-disk state of the erasure-coded MWMR emulation: a *coded cell*
/// holding the highest tag known committed at this disk plus a small set of
/// tagged fragments, and the join (merge) every backend applies to it.
///
/// A replicated base register stores one full value per disk; a coded cell
/// stores one *fragment* (1/k of the value, plus parity headroom) per disk,
/// following "Storage-Efficient Shared Memory Emulation" (Zorgui et al.)
/// against the Cadambe–Wang–Lynch storage lower bounds. Because a fragment
/// alone is useless, a coded write must never overwrite the previous
/// fragment before the new write is recoverable elsewhere — so the cell is
/// a join-semilattice, not a last-writer-wins register:
///
///   committed  : highest CodedTag this disk has seen a Commit for
///   frags      : fragments with tag >= committed (one per tag), capped at
///                kMaxPendingTags uncommitted entries (evict-lowest)
///
/// MergeCodedCell(current, delta) is commutative, idempotent and monotone
/// in each argument, so replayed or reordered deltas (client retransmits
/// after reconnect, chained queue slots) are harmless. The merge is total:
/// undecodable current state resets to the empty cell, an undecodable
/// delta leaves the cell unchanged.
///
/// Tag-completeness invariant (DESIGN.md §16): every Commit delta carries
/// the destination disk's own fragment, so a disk whose committed tag is t
/// always holds its fragment of t — even if the pending-tag cap evicted
/// the earlier Put's fragment, the commit re-installs it. A disk prunes
/// tag t's fragment only when some higher tag commits at that disk — at
/// which point the disk reports committed > t and holds the higher tag's
/// fragment instead. Hence once Commit(t) reaches a write quorum, every
/// read quorum intersects it in >= k disks (n >= 2f+k) that hold either
/// tag t's fragment or a higher committed tag's.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace nadreg {

/// Totally ordered write tag: (sequence, writer id), lexicographic.
/// seq 0 is the initial value — no write ever carries it.
struct CodedTag {
  SeqNum seq = 0;
  ProcessId writer = kNoProcess;

  friend bool operator==(const CodedTag&, const CodedTag&) = default;
  friend auto operator<=>(const CodedTag& a, const CodedTag& b) {
    if (auto c = a.seq <=> b.seq; c != 0) return c;
    return a.writer <=> b.writer;
  }
};

/// One tagged fragment as stored in a cell or carried by a Put delta.
/// `crc` covers `bytes` only — a reader drops corrupted fragments instead
/// of feeding them to the decoder (RS with exactly k inputs cannot detect
/// corruption by itself).
struct CodedFragment {
  CodedTag tag;
  std::uint8_t index = 0;  // fragment index in [0, n)
  std::uint8_t n = 0;
  std::uint8_t k = 0;
  std::uint32_t value_size = 0;  // pre-encoding value length, for trimming
  std::uint32_t crc = 0;
  std::string bytes;

  friend bool operator==(const CodedFragment&, const CodedFragment&) = default;
};

/// The full per-disk cell: join of every delta merged so far.
struct CodedCell {
  /// Uncommitted tags a cell retains beyond `committed` (bounded storage;
  /// the evict-lowest policy keeps the freshest in-flight writes).
  static constexpr std::size_t kMaxPendingTags = 8;

  CodedTag committed;
  std::vector<CodedFragment> frags;  // sorted by tag ascending, unique tags

  friend bool operator==(const CodedCell&, const CodedCell&) = default;
};

/// A delta shipped to a disk by the coded write/read protocol.
struct CodedDelta {
  enum class Kind : std::uint8_t { kPut = 1, kCommit = 2 };
  Kind kind = Kind::kPut;
  CodedFragment frag;     // kPut always; kCommit when has_frag
  CodedTag tag;           // kCommit only (== frag.tag when has_frag)
  bool has_frag = false;  // kCommit: carries the destination's fragment
};

/// CRC-32 (IEEE 802.3: reflected polynomial 0xEDB88320, initial and final
/// XOR 0xFFFFFFFF) over `bytes`, on detail::ActiveCrcKernel().
std::uint32_t Crc32(std::string_view bytes);

namespace detail {

/// A CRC-32 kernel. Both produce identical checksums: kSlicing8 makes
/// eight table lookups per eight input bytes; kClmul folds 64 bytes per
/// step with carry-less multiplies (x86-64 PCLMULQDQ, DESIGN.md §16
/// "Kernels"). Crc32 runs on ActiveCrcKernel(), and tests and
/// bench/micro_coded name each one to check it against Crc32Bytewise.
enum class CrcKernel : std::uint8_t { kSlicing8, kClmul };

/// The kernels this CPU runs, kSlicing8 first.
std::vector<CrcKernel> AvailableCrcKernels();
/// The fastest available kernel (chosen once per process).
CrcKernel ActiveCrcKernel();
const char* CrcKernelName(CrcKernel kernel);

/// CRC-32 of `bytes` on `kernel`, which must be available.
std::uint32_t Crc32(CrcKernel kernel, std::string_view bytes);

/// The one-table, one-byte-per-step CRC-32: the kernels' oracle in tests
/// and bench/micro_coded.
std::uint32_t Crc32Bytewise(std::string_view bytes);

}  // namespace detail

std::string EncodeCodedCell(const CodedCell& cell);
/// The empty string (register initial value) decodes to the empty cell.
[[nodiscard]] Expected<CodedCell> DecodeCodedCell(std::string_view bytes);

std::string EncodeCodedPut(const CodedFragment& frag);
/// Tag-only commit: raises the committed tag without touching fragments.
/// The protocol never sends these (its commits always carry a fragment,
/// see below); a durable disk journals one in place of a commit whose
/// fragment it already held (MergeCodedCell's `journal`).
std::string EncodeCodedCommit(const CodedTag& tag);
/// Commit carrying the destination disk's fragment of `frag.tag`. The
/// merge re-installs the fragment alongside raising the committed tag, so
/// a commit makes its own tag decodable at that disk even if the Put's
/// fragment was evicted by the pending cap — and a reader's help-commit
/// of an in-flight tag re-propagates the fragments it decoded from.
std::string EncodeCodedCommit(const CodedFragment& frag);
[[nodiscard]] Expected<CodedDelta> DecodeCodedDelta(std::string_view bytes);

/// True when merging `later` alone leaves any cell exactly as merging
/// `earlier` and then `later` does, so a queue may drop `earlier` once
/// `later` is queued behind it for the same disk. The rule: a
/// fragment-carrying Commit(T) subsumes a Put(t) or Commit(t) with
/// t <= T. Commit(T) raises the committed tag to >= T and prunes every
/// fragment below it, so nothing `earlier` installs survives, except the
/// fragment of T itself, which `later` re-installs; and an eviction the
/// pending cap makes when a Put(t) lands removes only tags <= t, which
/// Commit(T) prunes anyway (DESIGN.md §16). False when either delta does
/// not decode. Parses headers only: fragment payloads are not copied.
bool CodedDeltaSubsumes(std::string_view later, std::string_view earlier);

/// The cell join applied at a disk's linearization point:
/// decode(current) ⊔ delta, re-encoded. Total on corrupt input (see the
/// file comment); the only mutation path for coded cells on every backend.
///
/// `journal`, when set, receives what a durable disk journals so that
/// replaying this merge over the same `current` rebuilds the same cell:
/// it is left empty when that is `delta` itself, and holds the tag-only
/// EncodeCodedCommit(tag) when `delta` is a fragment-carrying Commit whose
/// fragment `current` already holds (operator==), the usual case, since
/// the tag's Put installed it. From that pre-state both deltas raise the
/// committed tag alike, keep the same fragment and prune the same tags.
/// Its capacity is reused, so a disk that keeps one buffer allocates once.
Value MergeCodedCell(const Value& current, std::string_view delta,
                     std::string* journal = nullptr);

}  // namespace nadreg
