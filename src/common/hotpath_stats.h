/// \file
/// Process-wide counters for the NAD RPC hot path: payload bytes moved by
/// user-space copies between buffers (encode/decode/staging copies, not
/// the kernel's socket copy). The counters exist so bench/micro_hotpath
/// can report bytes-copied/op before and after the zero-copy framing work
/// with one definition of "copy"; they are relaxed atomics and cost one
/// uncontended fetch_add per counted site.
///
/// Counted sites (the definition the benchmarks rely on) — what SURVIVES
/// the zero-copy framing work, i.e. every remaining user-space copy:
///   * client: materializing a decoded read-response value for its
///     handler (the one copy the handler-owns-its-Value contract needs);
///   * server: copying a stored value into the response arena under the
///     stripe lock (reads), assigning a received value into the
///     register's string (writes);
///   * both: RxBuffer compaction/growth moving unconsumed bytes, and the
///     cold PutBytesCopy staging path.
/// The pre-change pipeline additionally counted: staging a write value,
/// framing bytes into the wire queue, appending received bytes to the rx
/// buffer, and decode materialization — all gone, which is what
/// bytes-copied/op in BENCH_hotpath.json measures.
#pragma once

#include <atomic>
#include <cstdint>

namespace nadreg::hotpath {

inline std::atomic<std::uint64_t> g_bytes_copied{0};

inline void CountCopy(std::size_t n) {
  g_bytes_copied.fetch_add(n, std::memory_order_relaxed);
}

inline std::uint64_t BytesCopied() {
  return g_bytes_copied.load(std::memory_order_relaxed);
}

}  // namespace nadreg::hotpath
