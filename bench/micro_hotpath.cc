// micro_hotpath — memory & syscall diet gate for the vectored RPC path.
//
// Drives P concurrent closed-loop pipelines through one NadClient against
// a kDisks-server loopback cluster. Each pipeline issues one Submit batch
// of B writes (spread round-robin over the disks, so the admission pass
// sends each disk its share with one writev), waits for all B
// completions, and immediately issues the next batch — the quorum-phase
// shape of core::RegisterSet, stripped to the transport.
//
// Beyond ops/sec and exact p50/p99 batch latency, the bench reports the
// two diet metrics the arena/zero-copy work is gated on:
//
//   allocs_per_op        process-wide heap allocations per completed write,
//                        measured by the counting operator new hook below
//                        (covers client AND in-process server: both ends of
//                        the hot path must stay allocation-free);
//   bytes_copied_per_op  user-space payload bytes memcpy'd per write
//                        (common/hotpath_stats.h; excludes the kernel's
//                        socket copy).
//
// A warmup pass runs first so steady-state numbers exclude connection
// setup, slab growth, and first-touch rehashes; counters are snapshotted
// around the measured pass only.
//
// Flags: --quick             CI shape (8 pipelines x 32 ops x 40 iters)
//        --pipelines N       concurrent batches in flight
//        --batch N           writes per batch
//        --iters N           measured batches per pipeline
//        --payload N         write value size in bytes (default 1024)
//        --baseline FILE     embed FILE's JSON object as "baseline" in the
//                            output (the pre-change numbers)
//        --check FILE        run --quick and exit 1 if allocs_per_op
//                            regressed >10% vs FILE's current section
//        --out FILE          output path (default BENCH_hotpath.json)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/hotpath_stats.h"
#include "common/sync.h"
#include "nad/client.h"
#include "nad/server.h"

// ---------------------------------------------------------------------------
// Counting allocator hook: every operator new in the process bumps one
// relaxed atomic. Replacing these globals is the standard-sanctioned way
// to observe allocation counts without an external tool.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

void* CountedAlloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace std::chrono_literals;
using nadreg::BlockId;
using nadreg::CondVar;
using nadreg::DiskId;
using nadreg::Mutex;
using nadreg::MutexLock;
using nadreg::RegisterId;
using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kDisks = 4;

struct Pipeline {
  std::vector<RegisterId> regs;        // the batch targets, fixed per pipeline
  std::atomic<std::size_t> remaining{0};  // completions outstanding this batch
  std::size_t batches_done = 0;
  Clock::time_point issued{};
  std::vector<std::uint64_t> lat_us;  // preallocated, one slot per batch
};

struct Bench {
  std::unique_ptr<nadreg::nad::NadClient> client;
  std::vector<std::unique_ptr<Pipeline>> pipelines;
  std::size_t iters = 0;
  std::string payload;

  Mutex mu;
  CondVar cv;
  std::size_t pipelines_done GUARDED_BY(mu) = 0;

  void IssueBatch(Pipeline* pl);
  void OnWriteDone(Pipeline* pl);

  /// Runs every pipeline for `n` batches; blocks until all finish.
  bool RunRound(std::size_t n) {
    iters = n;
    {
      MutexLock lock(mu);
      pipelines_done = 0;
    }
    for (auto& pl : pipelines) {
      pl->batches_done = 0;
      pl->lat_us.assign(n, 0);
    }
    for (auto& pl : pipelines) IssueBatch(pl.get());
    MutexLock lock(mu);
    return cv.WaitFor(mu, 600000ms, [&] {
      mu.AssertHeld();
      return pipelines_done == pipelines.size();
    });
  }
};

void Bench::IssueBatch(Pipeline* pl) {
  pl->issued = Clock::now();
  pl->remaining.store(pl->regs.size(), std::memory_order_relaxed);
  std::vector<nadreg::nad::NadClient::Op> ops;
  ops.reserve(pl->regs.size());
  for (const RegisterId& reg : pl->regs) {
    ops.push_back(nadreg::nad::NadClient::Op::Write(
        reg, payload, [this, pl] { OnWriteDone(pl); }));
  }
  client->Submit(0, std::move(ops));
}

void Bench::OnWriteDone(Pipeline* pl) {
  // Completions for one batch arrive on up to kDisks loop threads; the
  // one that retires the last op records the batch and re-issues.
  if (pl->remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  pl->lat_us[pl->batches_done] =
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            pl->issued)
          .count();
  ++pl->batches_done;
  if (pl->batches_done < iters) {
    IssueBatch(pl);
    return;
  }
  MutexLock lock(mu);
  ++pipelines_done;
  if (pipelines_done == pipelines.size()) cv.NotifyAll();
}

std::uint64_t Percentile(const std::vector<std::uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

std::string ReadFile(const char* path) {
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, got);
  std::fclose(f);
  return out;
}

/// Pulls the LAST "key": <number> out of a JSON file — the current
/// section is printed after the embedded baseline, so the last match is
/// the post-change number the CI gate compares against.
double LastNumberFor(const std::string& json, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  std::size_t pos = std::string::npos;
  for (std::size_t at = json.find(needle); at != std::string::npos;
       at = json.find(needle, at + 1)) {
    pos = at;
  }
  if (pos == std::string::npos) return -1.0;
  return std::atof(json.c_str() + pos + needle.size());
}

struct Results {
  double ops_per_sec = 0;
  std::uint64_t p50_us = 0, p99_us = 0;
  double allocs_per_op = 0;
  double bytes_copied_per_op = 0;
  double elapsed_sec = 0;
  std::size_t total_ops = 0;
};

}  // namespace

int main(int argc, char** argv) {
  std::size_t pipelines = 32;
  std::size_t batch = 32;
  std::size_t iters = 300;
  std::size_t payload_bytes = 1024;
  const char* baseline_path = nullptr;
  const char* check_path = nullptr;
  const char* out_path = "BENCH_hotpath.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      // Keep the full run's batch size: per-batch fixed allocations
      // amortize over the batch, so a smaller batch would inflate
      // allocs/op and the --check gate would compare unlike shapes.
      pipelines = 8;
      batch = 32;
      iters = 40;
    } else if (std::strcmp(argv[i], "--pipelines") == 0 && i + 1 < argc) {
      pipelines = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc) {
      batch = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
      iters = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--payload") == 0 && i + 1 < argc) {
      payload_bytes = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      check_path = argv[++i];
      pipelines = 8;
      batch = 32;
      iters = 40;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--pipelines N] [--batch N] "
                   "[--iters N] [--payload N] [--baseline FILE] "
                   "[--check FILE] [--out FILE]\n",
                   argv[0]);
      return 2;
    }
  }

  std::vector<std::unique_ptr<nadreg::nad::NadServer>> servers;
  std::map<DiskId, nadreg::nad::Endpoint> endpoints;
  for (DiskId d = 0; d < kDisks; ++d) {
    auto server = nadreg::nad::NadServer::Start({});
    if (!server.ok()) {
      std::fprintf(stderr, "server start: %s\n",
                   server.status().ToString().c_str());
      return 1;
    }
    endpoints[d] =
        nadreg::nad::Endpoint{"127.0.0.1", (*server)->port()};
    servers.push_back(std::move(*server));
  }

  Bench bench;
  auto client = nadreg::nad::NadClient::Connect(endpoints);
  if (!client.ok()) {
    std::fprintf(stderr, "connect: %s\n", client.status().ToString().c_str());
    return 1;
  }
  bench.client = std::move(*client);
  bench.payload.assign(payload_bytes, 'h');
  bench.pipelines.reserve(pipelines);
  for (std::size_t p = 0; p < pipelines; ++p) {
    auto pl = std::make_unique<Pipeline>();
    pl->regs.reserve(batch);
    for (std::size_t b = 0; b < batch; ++b) {
      pl->regs.push_back(RegisterId{static_cast<DiskId>(b % kDisks),
                                    static_cast<BlockId>(p * batch + b)});
    }
    bench.pipelines.push_back(std::move(pl));
  }

  std::printf(
      "micro_hotpath: %zu pipelines x %zu-write batches x %zu iters, "
      "%zuB payload, %u disks, %zu loops\n",
      pipelines, batch, iters, payload_bytes, kDisks,
      bench.client->NumEventLoops());

  // Warmup: populate every register, grow slabs/tables to steady state.
  if (!bench.RunRound(std::max<std::size_t>(4, iters / 10))) {
    std::fprintf(stderr, "warmup timed out\n");
    return 1;
  }

  const std::uint64_t allocs0 = g_alloc_count.load(std::memory_order_relaxed);
  const std::uint64_t copied0 = nadreg::hotpath::BytesCopied();
  const auto t0 = Clock::now();
  if (!bench.RunRound(iters)) {
    std::fprintf(stderr, "measured round timed out\n");
    return 1;
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - t0).count();
  const std::uint64_t allocs1 = g_alloc_count.load(std::memory_order_relaxed);
  const std::uint64_t copied1 = nadreg::hotpath::BytesCopied();

  std::vector<std::uint64_t> all;
  all.reserve(pipelines * iters);
  for (const auto& pl : bench.pipelines) {
    all.insert(all.end(), pl->lat_us.begin(), pl->lat_us.end());
  }
  std::sort(all.begin(), all.end());

  Results r;
  r.total_ops = pipelines * batch * iters;
  r.elapsed_sec = elapsed;
  r.ops_per_sec = static_cast<double>(r.total_ops) / elapsed;
  r.p50_us = Percentile(all, 0.50);
  r.p99_us = Percentile(all, 0.99);
  r.allocs_per_op = static_cast<double>(allocs1 - allocs0) /
                    static_cast<double>(r.total_ops);
  r.bytes_copied_per_op = static_cast<double>(copied1 - copied0) /
                          static_cast<double>(r.total_ops);

  std::printf(
      "  %zu ops in %.2fs = %.0f ops/sec\n"
      "  batch latency p50 %lluus  p99 %lluus\n"
      "  allocs/op %.2f  bytes-copied/op %.1f\n",
      r.total_ops, r.elapsed_sec, r.ops_per_sec,
      static_cast<unsigned long long>(r.p50_us),
      static_cast<unsigned long long>(r.p99_us), r.allocs_per_op,
      r.bytes_copied_per_op);

  if (check_path != nullptr) {
    // CI regression gate: the committed BENCH_hotpath.json's current
    // section is the allocation budget; >10% more allocs/op fails.
    const std::string committed = ReadFile(check_path);
    const double budget = LastNumberFor(committed, "allocs_per_op");
    if (budget < 0) {
      std::fprintf(stderr, "check: no allocs_per_op in %s\n", check_path);
      return 2;
    }
    const double limit = budget * 1.10 + 0.05;  // absolute slack for ~0
    std::printf("  check: allocs/op %.3f vs budget %.3f (limit %.3f)\n",
                r.allocs_per_op, budget, limit);
    if (r.allocs_per_op > limit) {
      std::fprintf(stderr,
                   "check FAILED: allocs/op regressed >10%% (%.3f > %.3f)\n",
                   r.allocs_per_op, limit);
      return 1;
    }
    return 0;
  }

  std::string baseline;
  if (baseline_path != nullptr) {
    baseline = ReadFile(baseline_path);
    while (!baseline.empty() &&
           (baseline.back() == '\n' || baseline.back() == ' ')) {
      baseline.pop_back();
    }
  }

  std::FILE* f = std::fopen(out_path, "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n");
    std::fprintf(f,
                 "  \"workload\": \"closed-loop batched writes: %zu "
                 "pipelines x %zu-write batches over %u disks\",\n",
                 pipelines, batch, kDisks);
    std::fprintf(f, "  \"payload_bytes\": %zu,\n", payload_bytes);
    std::fprintf(f, "  \"iters\": %zu,\n", iters);
    if (!baseline.empty()) {
      std::fprintf(f, "  \"baseline\": %s,\n", baseline.c_str());
    }
    std::fprintf(f,
                 "  \"current\": {\n"
                 "    \"total_ops\": %zu,\n"
                 "    \"elapsed_sec\": %.3f,\n"
                 "    \"ops_per_sec\": %.1f,\n"
                 "    \"batch_p50_us\": %llu,\n"
                 "    \"batch_p99_us\": %llu,\n"
                 "    \"allocs_per_op\": %.3f,\n"
                 "    \"bytes_copied_per_op\": %.1f\n"
                 "  }",
                 r.total_ops, r.elapsed_sec, r.ops_per_sec,
                 static_cast<unsigned long long>(r.p50_us),
                 static_cast<unsigned long long>(r.p99_us), r.allocs_per_op,
                 r.bytes_copied_per_op);
    if (!baseline.empty()) {
      const double base_ops = LastNumberFor(baseline, "ops_per_sec");
      const double base_allocs = LastNumberFor(baseline, "allocs_per_op");
      if (base_ops > 0 && base_allocs > 0) {
        std::fprintf(f,
                     ",\n  \"speedup_ops_per_sec\": %.2f,\n"
                     "  \"alloc_reduction\": %.1f\n",
                     r.ops_per_sec / base_ops,
                     base_allocs / std::max(r.allocs_per_op, 0.001));
      } else {
        std::fprintf(f, "\n");
      }
    } else {
      std::fprintf(f, "\n");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("  artifact: %s\n", out_path);
  }
  return 0;
}
