/// \file
/// Bump-pointer arena with slab reuse: the allocator behind the NAD hot
/// path's transient encode state (frame headers, copied response values).
///
/// An Arena hands out raw bytes from a chain of slabs by bumping an
/// offset; Reset() rewinds the offset but RETAINS every slab, so a
/// steady-state request cycle (frame → send → Reset) performs zero heap
/// allocations after warm-up. Allocation is a
/// pointer bump — no per-object headers, no free lists, no locks.
///
/// Ownership and lifetime rules (DESIGN.md §14):
///  * Single-owner: an Arena belongs to exactly one connection and is
///    touched only by that connection's owning thread (the client's
///    event loop / the server's per-connection serve thread) — the same
///    single-writer rule as the rest of the connection state. There is
///    deliberately no mutex; a debug build asserts the rule.
///  * Everything allocated from an Arena dies at the next Reset(). A
///    pointer or string_view into an arena must not outlive the reset
///    point of its owning cycle (wire-drained for a client's tx arena,
///    end-of-burst for the server's).
///  * Nothing placed in an arena is ever destructed: it holds raw bytes.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#ifndef NDEBUG
#include <thread>
#endif

namespace nadreg {

class Arena {
 public:
  static constexpr std::size_t kDefaultSlabBytes = 64 * 1024;
  /// Reset() releases dedicated one-off slabs larger than this (or than
  /// the configured slab size, whichever is bigger) instead of retaining
  /// them: a single outlier allocation — e.g. one maximum-size read
  /// value copied into a response — must not inflate the arena's
  /// footprint forever. Smaller oversized slabs stay retained, so a
  /// workload of legitimately large values keeps its warm memory.
  static constexpr std::size_t kMaxRetainedSlabBytes = 1024 * 1024;

  explicit Arena(std::size_t slab_bytes = kDefaultSlabBytes)
      : slab_bytes_(slab_bytes == 0 ? kDefaultSlabBytes : slab_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `n` bytes aligned to `align` (a power of two). The bytes are
  /// uninitialized and valid until the next Reset(). n == 0 is allowed
  /// and returns a (non-null) pointer into the current slab.
  char* Alloc(std::size_t n, std::size_t align = alignof(std::max_align_t)) {
    AssertOwner();
    assert((align & (align - 1)) == 0 && "alignment must be a power of two");
    while (slab_ < slabs_.size()) {
      Slab& s = slabs_[slab_];
      const std::size_t off = (offset_ + (align - 1)) & ~(align - 1);
      if (off + n <= s.size) {
        offset_ = off + n;
        bytes_used_ += n;
        return s.data.get() + off;
      }
      ++slab_;
      offset_ = 0;
    }
    // No retained slab fits: grow. Oversized requests get a dedicated
    // slab of exactly their size so one huge frame does not inflate the
    // steady-state footprint of every later cycle.
    const std::size_t size = n + align > slab_bytes_ ? n + align : slab_bytes_;
    slabs_.push_back(Slab{std::make_unique<char[]>(size), size});
    slab_ = slabs_.size() - 1;
    Slab& s = slabs_[slab_];
    const std::size_t base = reinterpret_cast<std::uintptr_t>(s.data.get());
    const std::size_t off = ((base + align - 1) & ~(align - 1)) - base;
    offset_ = off + n;
    bytes_used_ += n;
    return s.data.get() + off;
  }

  /// Copies `n` bytes into the arena and returns the stable copy.
  char* Copy(const char* src, std::size_t n) {
    char* p = Alloc(n, 1);
    std::memcpy(p, src, n);
    return p;
  }

  /// Rewinds to empty, RETAINING every steady-state slab (the whole
  /// point: the next cycle allocates from warm memory) but releasing
  /// one-off slabs beyond kMaxRetainedSlabBytes (see its comment).
  /// Invalidates everything Alloc'd.
  void Reset() {
    AssertOwner();
    const std::size_t cap = std::max(slab_bytes_, kMaxRetainedSlabBytes);
    std::erase_if(slabs_, [cap](const Slab& s) { return s.size > cap; });
    slab_ = 0;
    offset_ = 0;
    if (bytes_used_ > high_water_) high_water_ = bytes_used_;
    bytes_used_ = 0;
  }

  /// Bytes handed out since the last Reset (excludes alignment padding).
  std::size_t bytes_used() const { return bytes_used_; }
  /// Largest bytes_used() observed at a Reset — sizes the retained slabs.
  std::size_t high_water() const { return high_water_; }
  std::size_t slab_count() const { return slabs_.size(); }
  /// Total bytes held across all retained slabs.
  std::size_t retained_bytes() const {
    std::size_t total = 0;
    for (const Slab& s : slabs_) total += s.size;
    return total;
  }

 private:
  struct Slab {
    std::unique_ptr<char[]> data;
    std::size_t size;
  };

  /// Debug check of the single-owner rule: the first Alloc/Reset pins the
  /// owning thread; every later one must come from it.
  void AssertOwner() {
#ifndef NDEBUG
    const std::thread::id self = std::this_thread::get_id();
    if (owner_ == std::thread::id{}) owner_ = self;
    assert(owner_ == self && "arena touched off its owning thread");
#endif
  }

  std::size_t slab_bytes_;
  std::vector<Slab> slabs_;
  std::size_t slab_ = 0;    // slab currently bumping
  std::size_t offset_ = 0;  // bump offset within slabs_[slab_]
  std::size_t bytes_used_ = 0;
  std::size_t high_water_ = 0;
#ifndef NDEBUG
  std::thread::id owner_{};
#endif
};

}  // namespace nadreg
