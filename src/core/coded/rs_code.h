/// \file
/// Systematic Reed–Solomon erasure code over GF(2^8) — the fragment codec
/// behind the coded MWMR emulation (core::CodedMwmr).
///
/// An (n, k) code splits a value into k data shards and derives n-k parity
/// shards such that ANY k of the n fragments reconstruct the value — the
/// classic maximum-distance-separable property that turns an f-crash-prone
/// farm of n disks into storage costing ~n/k instead of n full copies
/// (Zorgui et al.; the Cadambe–Wang–Lynch bound says ~n/(n-k+1)... is the
/// floor for safe emulations, so n/k with n >= 2f+k is within a constant
/// of optimal while staying decodable from any quorum intersection).
///
/// Construction: a Vandermonde matrix over GF(2^8) (evaluation points
/// 0..n-1, reduction polynomial 0x11d) post-multiplied by the inverse of
/// its top k x k block, making the top k rows the identity — fragments
/// 0..k-1 are verbatim slices of the value (systematic), and any k rows of
/// the generator remain invertible. Pure C++, no dependencies.
///
/// Field arithmetic: the log/exp tables build the generator and decode
/// matrices; the bulk work is one kernel, detail::MulAdd (out ^= c * in
/// over a byte run), picked once per process. On x86-64 with AVX2 it looks
/// up both nibbles of 32 bytes at a time with `pshufb`; elsewhere it
/// indexes a 64 KiB product table. Data fragments are plain copies, and a
/// decode from the k data fragments is a plain copy too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace nadreg::core {

namespace detail {

/// A GF(2^8) multiply-accumulate kernel. Both produce identical bytes;
/// RsCode runs on ActiveGfKernel(), and tests and bench/micro_coded name
/// each one to check it against the other and against GfMulReference.
enum class GfKernel : std::uint8_t { kScalar, kAvx2 };

/// The kernels this CPU runs, kScalar first.
std::vector<GfKernel> AvailableGfKernels();
/// The fastest available kernel (chosen once per process).
GfKernel ActiveGfKernel();
const char* GfKernelName(GfKernel kernel);

/// out[i] ^= c * in[i] in GF(2^8) for i < len, on `kernel` (which must be
/// available). `in` and `out` must not overlap.
void MulAdd(GfKernel kernel, std::uint8_t c, const std::uint8_t* in,
            std::uint8_t* out, std::size_t len);

/// The log/exp product every table is built from: the kernels' oracle.
std::uint8_t GfMulReference(std::uint8_t a, std::uint8_t b);

}  // namespace detail

/// An immutable (n, k) systematic Reed–Solomon code. Cheap to copy; all
/// methods are const and thread-safe.
class RsCode {
 public:
  /// Largest supported fragment count (field size minus the zero point is
  /// not a constraint here — any 255 distinct evaluation points fit).
  static constexpr unsigned kMaxFragments = 255;

  /// Builds the generator for 1 <= k <= n <= kMaxFragments.
  static Expected<RsCode> Make(unsigned n, unsigned k);

  unsigned n() const { return n_; }
  unsigned k() const { return k_; }

  /// Bytes per fragment for a value of `value_size` bytes:
  /// ceil(value_size / k); 0 for the empty value.
  std::size_t FragmentSize(std::size_t value_size) const {
    return (value_size + k_ - 1) / k_;
  }

  /// Encodes `value` into n fragments of FragmentSize(value.size()) bytes
  /// each (the last data shard is zero-padded). Fragments 0..k-1 are
  /// verbatim slices of `value` (systematic).
  std::vector<std::string> Encode(std::string_view value) const {
    return Encode(value, detail::ActiveGfKernel());
  }

  /// Reconstructs the original value from any k fragments, given as
  /// (fragment index, fragment bytes) pairs. Requires >= k entries with
  /// distinct in-range indices and equal sizes consistent with
  /// `value_size`; extra entries beyond the first k usable ones are
  /// ignored. Fails (never crashes) on malformed input.
  Expected<std::string> Decode(
      const std::vector<std::pair<unsigned, std::string_view>>& frags,
      std::size_t value_size) const {
    return Decode(frags, value_size, detail::ActiveGfKernel());
  }

  /// Encode and Decode on a named kernel: the entry point through which
  /// tests and bench/micro_coded compare the kernels.
  std::vector<std::string> Encode(std::string_view value,
                                  detail::GfKernel kernel) const;
  Expected<std::string> Decode(
      const std::vector<std::pair<unsigned, std::string_view>>& frags,
      std::size_t value_size, detail::GfKernel kernel) const;

  /// Generator entry (row, col): fragment `row` is the sum over col of
  /// Coefficient(row, col) * data shard col.
  std::uint8_t Coefficient(unsigned row, unsigned col) const {
    return gen_[row * k_ + col];
  }

 private:
  RsCode(unsigned n, unsigned k, std::vector<std::uint8_t> gen)
      : n_(n), k_(k), gen_(std::move(gen)) {}

  unsigned n_;
  unsigned k_;
  std::vector<std::uint8_t> gen_;  // n x k generator, row-major
};

}  // namespace nadreg::core
