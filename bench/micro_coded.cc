// micro_coded — storage & wire-traffic gate for the erasure-coded MWMR
// emulation (core/coded/coded_mwmr.h).
//
// For each code geometry (n, k) and value size, runs a write/read loop
// through a CodedMwmr endpoint over a zero-delay SimFarm and measures:
//
//   bytes_at_rest        sum of the n coded-cell payloads after the loop
//                        (farm.Peek per disk) — steady state holds ONE
//                        committed fragment of ceil(size/k) bytes per disk
//                        plus bounded cell metadata, so the blowup over
//                        the raw value should track n/k, not n;
//   replicated_at_rest   the same value written verbatim to one register
//                        on each of the n disks — what any full-copy
//                        emulation stores, the n× baseline;
//   wire bytes           the endpoint's transport-independent accounting
//                        (delta payloads out, cell payloads in), split
//                        into write-phase and read-phase averages;
//   decode percentiles   exact sorted samples (nearest rank) of
//                        RsCode::Decode from the LAST k fragments of each
//                        cell's final value — parity-heavy, so the GF(2^8)
//                        kernel does the work rather than the plain copy a
//                        quorum of data fragments takes.
//
// It then measures the kernels on one 64 KiB value: CRC-32 MB/s on every
// CRC kernel this CPU runs (coded_cell.h, detail::CrcKernel) and on the
// bytewise oracle, and encode / decode MB/s on every GF(2^8) kernel
// (rs_code.h, detail::GfKernel), and checks that every GF kernel encodes
// and decodes bit-identically to the scalar one and that every CRC kernel
// agrees with the bytewise oracle, over every geometry and several value
// sizes.
// The artifact records provenance: git SHA, compiler, nproc, and the
// kernel the emulation ran on.
//
// --check turns the storage claim into a CI gate: at n=8, k=5 the
// measured at-rest blowup must stay <= 1.1 x (n/k) for every value size
// >= 4096 bytes (below that the fixed ~52B/cell tag+geometry metadata
// dominates the fragment and the ratio is meaningless — the small sizes
// are still reported in the artifact, just not gated). It also fails if
// any kernel's output differs from its oracle's.
//
// Flags: --quick        CI shape (fewer ops per cell of the sweep)
//        --check        run --quick and exit 1 if a gated blowup exceeds
//                       1.1 x n/k at n=8, k=5, or if the kernels disagree
//        --ops N        writes (and reads) per sweep cell
//        --out FILE     output path (default BENCH_coded.json)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/coded_cell.h"
#include "common/rng.h"
#include "core/address.h"
#include "core/coded/coded_mwmr.h"
#include "core/coded/rs_code.h"
#include "sim/sim_farm.h"

namespace {

using nadreg::DiskId;
using nadreg::RegisterId;
using nadreg::Rng;
using nadreg::core::CodedMwmr;
using nadreg::core::CodedOptions;
using nadreg::core::Component;
using nadreg::core::MakeBlock;
using nadreg::core::RsCode;
using nadreg::core::detail::ActiveGfKernel;
using nadreg::core::detail::AvailableGfKernels;
using nadreg::core::detail::GfKernel;
using nadreg::core::detail::GfKernelName;
using nadreg::detail::AvailableCrcKernels;
using nadreg::detail::CrcKernel;
using nadreg::detail::CrcKernelName;
using nadreg::sim::SimFarm;
using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kObject = 1;

struct CellResult {
  std::uint32_t n = 0, k = 0;
  std::size_t value_size = 0;
  std::uint64_t coded_at_rest = 0;       // bytes across all n disks
  std::uint64_t replicated_at_rest = 0;  // ditto, full-copy baseline
  double coded_blowup = 0;               // coded_at_rest / value_size
  double rate_bound = 0;                 // n/k — the coding-theoretic floor
  double write_wire_out = 0;             // bytes out per WRITE
  double read_wire_out = 0;              // bytes out per READ (write-back)
  double read_wire_in = 0;               // bytes in per READ (quorum cells)
  bool gated = false;
};

std::string RandomValue(Rng& rng, std::size_t size) {
  std::string v(size, '\0');
  for (char& c : v) c = static_cast<char>(rng.Below(256));
  return v;
}

/// The last k fragments' (index, bytes) pairs: the decode that leans
/// hardest on the GF(2^8) kernel.
std::vector<std::pair<unsigned, std::string_view>> LastK(
    const std::vector<std::string>& frags, unsigned k) {
  std::vector<std::pair<unsigned, std::string_view>> out;
  for (auto i = static_cast<unsigned>(frags.size() - k); i < frags.size();
       ++i) {
    out.emplace_back(i, frags[i]);
  }
  return out;
}

double ElapsedUs(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// Nearest-rank percentile of exact, sorted samples.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// Runs one sweep cell on a fresh farm, appending one decode-time sample
/// per op to `decode_us`. Returns false on setup failure.
bool RunCell(std::uint32_t n, std::uint32_t k, std::size_t value_size,
             std::size_t ops, std::uint64_t seed, CellResult* out,
             std::vector<double>* decode_us) {
  SimFarm::Options farm_opts;
  farm_opts.seed = seed;
  farm_opts.min_delay_us = 0;
  farm_opts.max_delay_us = 0;  // storage accounting, not schedule stress
  SimFarm farm(farm_opts);
  auto reg = CodedMwmr::Make(farm, kObject, /*self=*/1, CodedOptions{n, k});
  if (!reg.ok()) {
    std::fprintf(stderr, "CodedMwmr::Make(%u, %u): %s\n", n, k,
                 reg.status().ToString().c_str());
    return false;
  }

  Rng rng(seed);
  std::string last;
  for (std::size_t i = 0; i < ops; ++i) {
    last = RandomValue(rng, value_size);
    reg->Write(last);
  }
  const std::uint64_t out_after_writes = reg->WireBytesOut();
  const std::uint64_t in_after_writes = reg->WireBytesIn();
  for (std::size_t i = 0; i < ops; ++i) {
    auto v = reg->Read();
    if (!v.has_value() || v->size() != value_size) {
      std::fprintf(stderr, "read mismatch at n=%u k=%u size=%zu\n", n, k,
                   value_size);
      return false;
    }
  }

  out->n = n;
  out->k = k;
  out->value_size = value_size;
  out->rate_bound = static_cast<double>(n) / static_cast<double>(k);
  out->write_wire_out = static_cast<double>(out_after_writes) /
                        static_cast<double>(ops);
  out->read_wire_out =
      static_cast<double>(reg->WireBytesOut() - out_after_writes) /
      static_cast<double>(ops);
  out->read_wire_in =
      static_cast<double>(reg->WireBytesIn() - in_after_writes) /
      static_cast<double>(ops);

  // Steady state after the last write's commit round-tripped: each disk's
  // cell holds the committed fragment only.
  for (DiskId d = 0; d < n; ++d) {
    RegisterId r{d, MakeBlock(kObject, Component::kCodedCell, 0)};
    out->coded_at_rest += farm.Peek(r).size();
  }

  // Full-copy baseline on the same farm shape: one verbatim copy per
  // disk, which is exactly what the replicated emulations keep per value.
  const std::string value = RandomValue(rng, value_size);
  for (DiskId d = 0; d < n; ++d) {
    RegisterId r{d, MakeBlock(kObject + 1, Component::kCodedCell, 0)};
    std::atomic<bool> done{false};
    farm.IssueWrite(1, r, value, [&done] { done.store(true); });
    while (!done.load()) {
    }
    out->replicated_at_rest += farm.Peek(r).size();
  }

  out->coded_blowup = value_size == 0
                          ? 0
                          : static_cast<double>(out->coded_at_rest) /
                                static_cast<double>(value_size);

  auto rs = RsCode::Make(n, k);
  const std::vector<std::string> frags = rs->Encode(last);
  for (std::size_t i = 0; i < ops; ++i) {
    const auto start = Clock::now();
    auto decoded = rs->Decode(LastK(frags, k), last.size());
    decode_us->push_back(ElapsedUs(start));
    if (!decoded.ok() || *decoded != last) {
      std::fprintf(stderr, "decode mismatch at n=%u k=%u size=%zu\n", n, k,
                   value_size);
      return false;
    }
  }
  return true;
}

/// Throughput of one kernel path over a value, in MB/s of value bytes.
struct KernelRow {
  std::string path;
  double encode_mb_s = 0;
  double decode_mb_s = 0;
};

double MbPerS(std::size_t bytes, std::size_t reps, double us) {
  return us <= 0 ? 0
                 : static_cast<double>(bytes) * static_cast<double>(reps) /
                       us;  // bytes per microsecond == MB/s
}

KernelRow MeasureKernel(GfKernel kernel, const RsCode& rs,
                        const std::string& value, std::size_t reps) {
  KernelRow row;
  row.path = GfKernelName(kernel);
  std::vector<std::string> frags;
  auto start = Clock::now();
  for (std::size_t i = 0; i < reps; ++i) frags = rs.Encode(value, kernel);
  row.encode_mb_s = MbPerS(value.size(), reps, ElapsedUs(start));
  const auto picks = LastK(frags, rs.k());
  start = Clock::now();
  for (std::size_t i = 0; i < reps; ++i) {
    auto decoded = rs.Decode(picks, value.size(), kernel);
    if (!decoded.ok()) return row;
  }
  row.decode_mb_s = MbPerS(value.size(), reps, ElapsedUs(start));
  return row;
}

/// True when every GF kernel encodes bit-identically to the scalar kernel
/// and decodes back to the value, and every CRC kernel agrees with the
/// bytewise oracle on every fragment.
bool KernelsAgree(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& geometries) {
  Rng rng(0xA6EE);
  bool agree = true;
  for (auto [n, k] : geometries) {
    auto rs = RsCode::Make(n, k);
    for (std::size_t size : {0, 1, 31, 33, 1000, 4097, 65536}) {
      const std::string value = RandomValue(rng, size);
      const auto scalar = rs->Encode(value, GfKernel::kScalar);
      for (GfKernel kernel : AvailableGfKernels()) {
        const auto frags = rs->Encode(value, kernel);
        auto decoded = rs->Decode(LastK(frags, k), size, kernel);
        if (frags != scalar || !decoded.ok() || *decoded != value) {
          std::fprintf(stderr, "kernel %s disagrees at n=%u k=%u size=%zu\n",
                       GfKernelName(kernel), n, k, size);
          agree = false;
        }
      }
      for (CrcKernel kernel : AvailableCrcKernels()) {
        for (const std::string& f : scalar) {
          if (nadreg::detail::Crc32(kernel, f) !=
              nadreg::detail::Crc32Bytewise(f)) {
            std::fprintf(stderr,
                         "crc kernel %s disagrees at n=%u k=%u size=%zu\n",
                         CrcKernelName(kernel), n, k, size);
            agree = false;
          }
        }
      }
    }
  }
  return agree;
}

/// The working directory's commit SHA, suffixed "-dirty" when the tree
/// has uncommitted changes; "unknown" outside a git checkout.
std::string GitSha() {
  std::string sha;
  if (std::FILE* p =
          popen("git describe --always --dirty --abbrev=40 2>/dev/null", "r")) {
    char buf[128] = {};
    if (std::fgets(buf, sizeof buf, p) != nullptr) sha = buf;
    pclose(p);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  return sha.empty() ? "unknown" : sha;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t ops = 16;
  bool check = false;
  const char* out_path = "BENCH_coded.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      ops = 4;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
      ops = 4;
    } else if (std::strcmp(argv[i], "--ops") == 0 && i + 1 < argc) {
      ops = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--check] [--ops N] [--out FILE]\n",
                   argv[0]);
      return 2;
    }
  }

  const std::vector<std::pair<std::uint32_t, std::uint32_t>> geometries = {
      {4, 2}, {6, 4}, {8, 5}};
  const std::vector<std::size_t> sizes = {64, 1024, 4096, 16384, 65536};
  // The gate only bites where the fragment dwarfs the per-cell metadata.
  constexpr std::size_t kGateMinSize = 4096;
  constexpr double kGateSlack = 1.1;

  std::printf("micro_coded: %zu writes + %zu reads per cell, %zu geometries "
              "x %zu sizes\n",
              ops, ops, geometries.size(), sizes.size());

  std::vector<CellResult> results;
  std::vector<double> decode_us;
  bool gate_failed = false;
  std::uint64_t seed = 0xC0DED;
  for (auto [n, k] : geometries) {
    for (std::size_t size : sizes) {
      CellResult r;
      if (!RunCell(n, k, size, ops, seed++, &r, &decode_us)) return 1;
      r.gated = check && n == 8 && k == 5 && size >= kGateMinSize;
      const double limit = kGateSlack * r.rate_bound;
      std::printf(
          "  n=%u k=%u size=%6zu  at-rest %7llu B (%.2fx, bound %.2fx)  "
          "replicated %7llu B (%.0fx)  write-wire %8.0f B%s\n",
          n, k, size, static_cast<unsigned long long>(r.coded_at_rest),
          r.coded_blowup, r.rate_bound,
          static_cast<unsigned long long>(r.replicated_at_rest),
          static_cast<double>(n), r.write_wire_out,
          r.gated ? (r.coded_blowup <= limit ? "  [gate OK]" : "  [gate FAIL]")
                  : "");
      if (r.gated && r.coded_blowup > limit) gate_failed = true;
      results.push_back(r);
    }
  }

  std::sort(decode_us.begin(), decode_us.end());
  const double d50 = Percentile(decode_us, 0.50);
  const double d90 = Percentile(decode_us, 0.90);
  const double d99 = Percentile(decode_us, 0.99);
  const double dmax = decode_us.empty() ? 0 : decode_us.back();
  std::printf("  decode: %zu samples, p50 %.1fus p90 %.1fus p99 %.1fus "
              "max %.1fus\n",
              decode_us.size(), d50, d90, d99, dmax);

  // Kernel throughput on one 64 KiB value, at the benchmark geometries.
  constexpr std::size_t kKernelValueSize = 65536;
  const std::size_t reps = ops * 16;
  Rng rng(0xC4C);
  const std::string value = RandomValue(rng, kKernelValueSize);
  std::uint32_t sink = 0;
  std::vector<std::pair<const char*, double>> crc_rows;
  for (CrcKernel kernel : AvailableCrcKernels()) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) {
      sink += nadreg::detail::Crc32(kernel, value);
    }
    crc_rows.emplace_back(CrcKernelName(kernel),
                          MbPerS(value.size(), reps, ElapsedUs(start)));
  }
  auto start = Clock::now();
  for (std::size_t i = 0; i < reps; ++i) {
    sink += nadreg::detail::Crc32Bytewise(value);
  }
  crc_rows.emplace_back("bytewise",
                        MbPerS(value.size(), reps, ElapsedUs(start)));
  std::printf("  crc32 (64 KiB):");
  for (std::size_t i = 0; i < crc_rows.size(); ++i) {
    std::printf("%s %s %.0f MB/s", i == 0 ? "" : ",", crc_rows[i].first,
                crc_rows[i].second);
  }
  std::printf(" (sink %08x)\n", sink);
  struct GeometryRows {
    std::uint32_t n, k;
    std::vector<KernelRow> rows;
  };
  std::vector<GeometryRows> kernel_rows;
  for (auto [n, k] : {std::pair<std::uint32_t, std::uint32_t>{4, 2}, {8, 5}}) {
    auto rs = RsCode::Make(n, k);
    GeometryRows g{n, k, {}};
    for (GfKernel kernel : AvailableGfKernels()) {
      g.rows.push_back(MeasureKernel(kernel, *rs, value, reps));
      std::printf("  n=%u k=%u %-6s (64 KiB): encode %.0f MB/s, decode "
                  "%.0f MB/s\n",
                  n, k, g.rows.back().path.c_str(), g.rows.back().encode_mb_s,
                  g.rows.back().decode_mb_s);
    }
    kernel_rows.push_back(std::move(g));
  }
  const bool kernels_agree = KernelsAgree(geometries);
  const char* active = GfKernelName(ActiveGfKernel());
  const char* active_crc = CrcKernelName(nadreg::detail::ActiveCrcKernel());
  std::printf("  kernels agree with their oracles: %s (emulation ran on %s, "
              "crc %s)\n",
              kernels_agree ? "yes" : "NO", active, active_crc);

  std::FILE* f = std::fopen(out_path, "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"bench\": \"micro_coded\",\n");
    std::fprintf(f,
                 "  \"provenance\": {\"git_sha\": \"%s\", \"compiler\": "
                 "\"%s\", \"nproc\": %u, \"gf_kernel\": \"%s\", "
                 "\"crc_kernel\": \"%s\"},\n",
                 GitSha().c_str(), __VERSION__,
                 std::thread::hardware_concurrency(), active, active_crc);
    std::fprintf(f, "  \"ops_per_cell\": %zu,\n", ops);
    std::fprintf(f, "  \"gate\": {\"n\": 8, \"k\": 5, \"min_value_size\": %zu, "
                    "\"max_blowup_over_rate\": %.2f},\n",
                 kGateMinSize, kGateSlack);
    std::fprintf(f, "  \"results\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const CellResult& r = results[i];
      std::fprintf(
          f,
          "    {\"n\": %u, \"k\": %u, \"value_size\": %zu, "
          "\"coded_at_rest_bytes\": %llu, \"replicated_at_rest_bytes\": %llu, "
          "\"coded_blowup\": %.3f, \"rate_bound\": %.3f, "
          "\"write_wire_out_bytes\": %.0f, \"read_wire_out_bytes\": %.0f, "
          "\"read_wire_in_bytes\": %.0f}%s\n",
          r.n, r.k, r.value_size,
          static_cast<unsigned long long>(r.coded_at_rest),
          static_cast<unsigned long long>(r.replicated_at_rest),
          r.coded_blowup, r.rate_bound, r.write_wire_out, r.read_wire_out,
          r.read_wire_in, i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"decode_us\": {\"count\": %zu, \"p50\": %.2f, "
                 "\"p90\": %.2f, \"p99\": %.2f, \"max\": %.2f},\n",
                 decode_us.size(), d50, d90, d99, dmax);
    std::fprintf(f,
                 "  \"kernels\": {\"value_size\": %zu, \"reps\": %zu, "
                 "\"crc32_mb_s\": {",
                 kKernelValueSize, reps);
    for (std::size_t i = 0; i < crc_rows.size(); ++i) {
      std::fprintf(f, "%s\"%s\": %.0f", i == 0 ? "" : ", ", crc_rows[i].first,
                   crc_rows[i].second);
    }
    std::fprintf(f, "},\n    \"rs\": [\n");
    for (std::size_t g = 0; g < kernel_rows.size(); ++g) {
      const auto& rows = kernel_rows[g].rows;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const bool last = g + 1 == kernel_rows.size() && i + 1 == rows.size();
        std::fprintf(f,
                     "      {\"n\": %u, \"k\": %u, \"path\": \"%s\", "
                     "\"encode_mb_s\": %.0f, \"decode_mb_s\": %.0f}%s\n",
                     kernel_rows[g].n, kernel_rows[g].k, rows[i].path.c_str(),
                     rows[i].encode_mb_s, rows[i].decode_mb_s,
                     last ? "" : ",");
      }
    }
    std::fprintf(f, "    ],\n    \"agree_with_oracles\": %s}\n",
                 kernels_agree ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("  artifact: %s\n", out_path);
  }

  if (gate_failed) {
    std::fprintf(stderr,
                 "check FAILED: coded at-rest blowup exceeded %.2f x n/k\n",
                 kGateSlack);
    return 1;
  }
  if (check && !kernels_agree) {
    std::fprintf(stderr, "check FAILED: a GF(2^8) or CRC-32 kernel "
                         "disagrees with its oracle\n");
    return 1;
  }
  if (check) {
    std::printf("  check: all gated blowups within %.2f x n/k; kernels "
                "agree\n",
                kGateSlack);
  }
  return 0;
}
