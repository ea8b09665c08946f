#include "core/coded/rs_code.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace nadreg::core {

namespace {

// GF(2^8) with the conventional reduction polynomial x^8+x^4+x^3+x^2+1
// (0x11d) and generator 2. exp_ is doubled so GfMul can skip the mod-255
// wrap on the log sum.
struct GfTables {
  std::array<std::uint8_t, 512> exp{};
  std::array<std::uint8_t, 256> log{};

  GfTables() {
    std::uint16_t x = 1;
    for (unsigned i = 0; i < 255; ++i) {
      exp[i] = static_cast<std::uint8_t>(x);
      log[x] = static_cast<std::uint8_t>(i);
      x <<= 1;
      if (x & 0x100) x ^= 0x11d;
    }
    for (unsigned i = 255; i < 512; ++i) exp[i] = exp[i - 255];
  }
};

const GfTables& Gf() {
  static const GfTables tables;
  return tables;
}

std::uint8_t GfMul(std::uint8_t a, std::uint8_t b) {
  if (a == 0 || b == 0) return 0;
  const GfTables& t = Gf();
  return t.exp[t.log[a] + t.log[b]];
}

std::uint8_t GfInv(std::uint8_t a) {
  const GfTables& t = Gf();
  return t.exp[255 - t.log[a]];
}

/// x^p in GF(2^8), with the 0^0 = 1 convention the Vandermonde rows need.
std::uint8_t GfPow(std::uint8_t x, unsigned p) {
  std::uint8_t r = 1;
  for (unsigned i = 0; i < p; ++i) r = GfMul(r, x);
  return r;
}

/// Per-coefficient product tables, built once from GfMul: `mul[c]` maps
/// x to c * x (the scalar kernel, 64 KiB), and `nib[c]` holds c * x for
/// the 16 low nibbles x, then for the 16 high nibbles x << 4 (the pshufb
/// kernel, 8 KiB). c * x = nib[c][x & 15] ^ nib[c][16 + (x >> 4)] because
/// multiplication by c is linear over GF(2).
struct KernelTables {
  std::array<std::array<std::uint8_t, 256>, 256> mul{};
  std::array<std::array<std::uint8_t, 32>, 256> nib{};

  KernelTables() {
    for (unsigned c = 0; c < 256; ++c) {
      for (unsigned x = 0; x < 256; ++x) {
        mul[c][x] = GfMul(static_cast<std::uint8_t>(c),
                          static_cast<std::uint8_t>(x));
      }
      for (unsigned x = 0; x < 16; ++x) {
        nib[c][x] = mul[c][x];
        nib[c][16 + x] = mul[c][x << 4];
      }
    }
  }
};

const KernelTables& Kernels() {
  static const KernelTables tables;
  return tables;
}

void MulAddScalar(std::uint8_t c, const std::uint8_t* in, std::uint8_t* out,
                  std::size_t len) {
  const std::uint8_t* row = Kernels().mul[c].data();
  for (std::size_t i = 0; i < len; ++i) out[i] ^= row[in[i]];
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) void MulAddAvx2(std::uint8_t c,
                                                const std::uint8_t* in,
                                                std::uint8_t* out,
                                                std::size_t len) {
  const std::uint8_t* nib = Kernels().nib[c].data();
  const __m256i lo_table = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(nib)));
  const __m256i hi_table = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(nib + 16)));
  const __m256i low_nibbles = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    const __m256i lo = _mm256_and_si256(x, low_nibbles);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi64(x, 4), low_nibbles);
    const __m256i product = _mm256_xor_si256(
        _mm256_shuffle_epi8(lo_table, lo), _mm256_shuffle_epi8(hi_table, hi));
    __m256i* dst = reinterpret_cast<__m256i*>(out + i);
    _mm256_storeu_si256(dst,
                        _mm256_xor_si256(_mm256_loadu_si256(dst), product));
  }
  MulAddScalar(c, in + i, out + i, len - i);
}
#endif

detail::GfKernel DetectKernel() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return detail::GfKernel::kAvx2;
#endif
  return detail::GfKernel::kScalar;
}

/// In-place Gauss–Jordan inverse of a k x k matrix (row-major). Returns
/// false if singular — impossible for the matrices this file builds, but
/// Decode stays total on that path rather than asserting.
bool GfInvertMatrix(std::vector<std::uint8_t>& m, unsigned k) {
  std::vector<std::uint8_t> inv(static_cast<std::size_t>(k) * k, 0);
  for (unsigned i = 0; i < k; ++i) inv[i * k + i] = 1;
  for (unsigned col = 0; col < k; ++col) {
    unsigned pivot = col;
    while (pivot < k && m[pivot * k + col] == 0) ++pivot;
    if (pivot == k) return false;
    if (pivot != col) {
      for (unsigned j = 0; j < k; ++j) {
        std::swap(m[pivot * k + j], m[col * k + j]);
        std::swap(inv[pivot * k + j], inv[col * k + j]);
      }
    }
    const std::uint8_t scale = GfInv(m[col * k + col]);
    for (unsigned j = 0; j < k; ++j) {
      m[col * k + j] = GfMul(m[col * k + j], scale);
      inv[col * k + j] = GfMul(inv[col * k + j], scale);
    }
    for (unsigned row = 0; row < k; ++row) {
      if (row == col) continue;
      const std::uint8_t factor = m[row * k + col];
      if (factor == 0) continue;
      for (unsigned j = 0; j < k; ++j) {
        m[row * k + j] ^= GfMul(factor, m[col * k + j]);
        inv[row * k + j] ^= GfMul(factor, inv[col * k + j]);
      }
    }
  }
  m = std::move(inv);
  return true;
}

}  // namespace

Expected<RsCode> RsCode::Make(unsigned n, unsigned k) {
  if (k < 1 || k > n || n > kMaxFragments) {
    return Status::Invalid("rs_code: need 1 <= k <= n <= 255");
  }
  // Vandermonde rows at distinct points 0..n-1: any k of them (all k
  // columns kept) form a smaller Vandermonde with distinct points, hence
  // invertible. Right-multiplying by the inverse of the top k x k block
  // preserves that while turning the top into the identity (systematic).
  std::vector<std::uint8_t> vand(static_cast<std::size_t>(n) * k);
  for (unsigned i = 0; i < n; ++i) {
    for (unsigned j = 0; j < k; ++j) {
      vand[i * k + j] = GfPow(static_cast<std::uint8_t>(i), j);
    }
  }
  std::vector<std::uint8_t> top(vand.begin(), vand.begin() + k * k);
  if (!GfInvertMatrix(top, k)) {
    return Status::Invalid("rs_code: Vandermonde block not invertible");
  }
  std::vector<std::uint8_t> gen(static_cast<std::size_t>(n) * k, 0);
  for (unsigned i = 0; i < n; ++i) {
    for (unsigned j = 0; j < k; ++j) {
      std::uint8_t acc = 0;
      for (unsigned m = 0; m < k; ++m) {
        acc ^= GfMul(vand[i * k + m], top[m * k + j]);
      }
      gen[i * k + j] = acc;
    }
  }
  return RsCode(n, k, std::move(gen));
}

std::vector<std::string> RsCode::Encode(std::string_view value,
                                        detail::GfKernel kernel) const {
  const std::size_t s = FragmentSize(value.size());
  // Data shard i is value[i*s, (i+1)*s), zero-padded at the tail; only its
  // first `len(i)` bytes are nonzero, so they are all a parity row reads.
  auto len = [&](unsigned i) {
    const std::size_t off = static_cast<std::size_t>(i) * s;
    return off < value.size() ? std::min(s, value.size() - off) : 0;
  };
  auto shard = [&](unsigned i) {
    return reinterpret_cast<const std::uint8_t*>(value.data()) +
           static_cast<std::size_t>(i) * s;
  };
  std::vector<std::string> frags(n_);
  for (unsigned row = 0; row < n_; ++row) {
    std::string& out = frags[row];
    if (row < k_) {
      out.assign(value.substr(std::min(value.size(), std::size_t{row} * s),
                              len(row)));
      out.resize(s);
      continue;
    }
    out.assign(s, '\0');
    auto* dst = reinterpret_cast<std::uint8_t*>(out.data());
    for (unsigned i = 0; i < k_; ++i) {
      detail::MulAdd(kernel, Coefficient(row, i), shard(i), dst, len(i));
    }
  }
  return frags;
}

Expected<std::string> RsCode::Decode(
    const std::vector<std::pair<unsigned, std::string_view>>& frags,
    std::size_t value_size, detail::GfKernel kernel) const {
  const std::size_t s = FragmentSize(value_size);
  std::vector<unsigned> idx;
  std::vector<std::string_view> data;
  idx.reserve(k_);
  data.reserve(k_);
  for (const auto& [i, bytes] : frags) {
    if (i >= n_ || bytes.size() != s) {
      return Status::Invalid("rs_code: bad fragment index or size");
    }
    bool dup = false;
    for (unsigned seen : idx) dup |= (seen == i);
    if (dup) continue;
    idx.push_back(i);
    data.push_back(bytes);
    if (idx.size() == k_) break;
  }
  if (idx.size() < k_) {
    return Status::Invalid("rs_code: fewer than k distinct fragments");
  }
  // Output shard i is value[i*s, i*s + len(i)); a data fragment among the
  // picks is that shard verbatim (its generator row is the identity row).
  auto len = [&](unsigned i) {
    const std::size_t off = static_cast<std::size_t>(i) * s;
    return off < value_size ? std::min(s, value_size - off) : 0;
  };
  std::string out(value_size, '\0');
  auto* dst = reinterpret_cast<std::uint8_t*>(out.data());
  std::vector<bool> copied(k_, false);
  unsigned missing = k_;
  for (unsigned r = 0; r < k_; ++r) {
    if (idx[r] >= k_) continue;
    std::memcpy(dst + std::size_t{idx[r]} * s, data[r].data(), len(idx[r]));
    copied[idx[r]] = true;
    --missing;
  }
  if (missing == 0) return out;
  // Solve G_S * shards = fragments for the k chosen rows S, for the shards
  // no data fragment supplied.
  std::vector<std::uint8_t> sub(static_cast<std::size_t>(k_) * k_);
  for (unsigned r = 0; r < k_; ++r) {
    for (unsigned c = 0; c < k_; ++c) sub[r * k_ + c] = Coefficient(idx[r], c);
  }
  if (!GfInvertMatrix(sub, k_)) {
    return Status::Invalid("rs_code: singular decode matrix");
  }
  for (unsigned i = 0; i < k_; ++i) {
    if (copied[i]) continue;
    for (unsigned r = 0; r < k_; ++r) {
      detail::MulAdd(kernel, sub[i * k_ + r],
                     reinterpret_cast<const std::uint8_t*>(data[r].data()),
                     dst + std::size_t{i} * s, len(i));
    }
  }
  return out;
}

namespace detail {

std::vector<GfKernel> AvailableGfKernels() {
  std::vector<GfKernel> out = {GfKernel::kScalar};
  if (ActiveGfKernel() == GfKernel::kAvx2) out.push_back(GfKernel::kAvx2);
  return out;
}

GfKernel ActiveGfKernel() {
  static const GfKernel active = DetectKernel();
  return active;
}

const char* GfKernelName(GfKernel kernel) {
  return kernel == GfKernel::kAvx2 ? "avx2" : "scalar";
}

void MulAdd(GfKernel kernel, std::uint8_t c, const std::uint8_t* in,
            std::uint8_t* out, std::size_t len) {
  if (c == 0 || len == 0) return;
#if defined(__x86_64__)
  if (kernel == GfKernel::kAvx2) {
    assert(ActiveGfKernel() == GfKernel::kAvx2 && "AVX2 kernel unavailable");
    MulAddAvx2(c, in, out, len);
    return;
  }
#endif
  assert(kernel == GfKernel::kScalar && "kernel unavailable on this CPU");
  MulAddScalar(c, in, out, len);
}

std::uint8_t GfMulReference(std::uint8_t a, std::uint8_t b) {
  return GfMul(a, b);
}

}  // namespace detail

}  // namespace nadreg::core
