// micro_async — concurrency stress for the event-loop client core.
//
// Drives N emulated client sessions (default 10,000; --quick: 1,000)
// through one shared NadClient against a 3-disk TCP cluster on loopback.
// Each session is closed-loop: it alternates write and read on its own
// register, and each completion handler — running on the owning event
// loop — submits the session's next operation, so the outstanding-op
// count stays at exactly one per session and the client multiplexes
// 10k concurrent sessions over a handful of epoll loops.
//
// The whole workload is run once per event-loop count in {1, 2, 4} (an
// explicit Options::num_event_loops sweep — how much loop parallelism
// buys under this session count on this machine; the client clamps a
// request beyond its connection count, so 4 reports as 3 over 3 disks),
// and the results are folded into one BENCH_async.json: a "sweep" array
// with one entry per configuration, plus top-level fields from the
// 1-loop run (the stable reference shape for cross-commit comparison).
//
// Every operation's latency is recorded per session (no cross-session
// contention on the hot path); at the end all samples are merged and
// sorted for exact p50/p99/p999.
//
// Flags: --quick            1,000 sessions x 5 ops (the CI smoke shape)
//        --clients N        session count
//        --ops N            operations per session
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"
#include "nad/client.h"
#include "nad/server.h"

namespace {

using namespace std::chrono_literals;
using nadreg::BlockId;
using nadreg::CondVar;
using nadreg::DiskId;
using nadreg::Mutex;
using nadreg::MutexLock;
using nadreg::RegisterId;
using nadreg::Value;
using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kDisks = 3;
constexpr std::size_t kPayloadBytes = 64;
constexpr std::size_t kLoopSweep[] = {1, 2, 4};

struct Session {
  RegisterId reg{};
  std::size_t ops_done = 0;
  Clock::time_point issued{};
  std::vector<std::uint64_t> lat_us;  // preallocated, one slot per op
};

struct Bench {
  std::unique_ptr<nadreg::nad::NadClient> client;
  std::vector<Session> sessions;
  std::size_t ops_per_session = 0;
  std::string payload = std::string(kPayloadBytes, 'a');

  Mutex mu;
  CondVar cv;
  std::size_t sessions_done GUARDED_BY(mu) = 0;

  void IssueNext(Session* s);
  void OnComplete(Session* s);
};

void Bench::IssueNext(Session* s) {
  s->issued = Clock::now();
  // Even ops write, odd ops read back — a closed-loop ping-pong on the
  // session's own register.
  if (s->ops_done % 2 == 0) {
    client->IssueWrite(static_cast<nadreg::ProcessId>(s->reg.block), s->reg,
                       payload, [this, s] { OnComplete(s); });
  } else {
    client->IssueRead(static_cast<nadreg::ProcessId>(s->reg.block), s->reg,
                      [this, s](Value) { OnComplete(s); });
  }
}

void Bench::OnComplete(Session* s) {
  const auto now = Clock::now();
  s->lat_us[s->ops_done] =
      std::chrono::duration_cast<std::chrono::microseconds>(now - s->issued)
          .count();
  ++s->ops_done;
  if (s->ops_done < ops_per_session) {
    IssueNext(s);  // runs on the owning loop: admission is nonblocking
    return;
  }
  MutexLock lock(mu);
  ++sessions_done;
  if (sessions_done == sessions.size()) cv.NotifyAll();
}

std::uint64_t Percentile(const std::vector<std::uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

struct RunResult {
  std::size_t event_loops = 0;
  double elapsed_sec = 0;
  double throughput = 0;
  std::uint64_t p50 = 0, p99 = 0, p999 = 0, max = 0;
};

/// Runs the full closed-loop workload once with `num_loops` event loops
/// against an already-running cluster. Fresh client, fresh sessions.
bool RunOne(const std::map<DiskId, nadreg::nad::Endpoint>& endpoints,
            std::size_t clients, std::size_t ops, std::size_t num_loops,
            RunResult* out) {
  Bench bench;
  nadreg::nad::NadClient::Options options;
  options.num_event_loops = num_loops;
  auto client = nadreg::nad::NadClient::Connect(endpoints, options);
  if (!client.ok()) {
    std::fprintf(stderr, "connect: %s\n", client.status().ToString().c_str());
    return false;
  }
  bench.client = std::move(*client);
  bench.ops_per_session = ops;
  bench.sessions.resize(clients);
  for (std::size_t k = 0; k < clients; ++k) {
    Session& s = bench.sessions[k];
    s.reg = RegisterId{static_cast<DiskId>(k % kDisks),
                       static_cast<BlockId>(k)};
    s.lat_us.assign(ops, 0);
  }

  std::printf("micro_async: %zu sessions x %zu ops over %u disks, %zu loops\n",
              clients, ops, kDisks, bench.client->NumEventLoops());
  const auto t0 = Clock::now();
  for (Session& s : bench.sessions) bench.IssueNext(&s);
  {
    MutexLock lock(bench.mu);
    const bool all_done = bench.cv.WaitFor(bench.mu, 600000ms, [&] {
      bench.mu.AssertHeld();
      return bench.sessions_done == bench.sessions.size();
    });
    if (!all_done) {
      std::fprintf(stderr, "timed out: %zu/%zu sessions finished\n",
                   bench.sessions_done, bench.sessions.size());
      return false;
    }
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - t0).count();

  std::vector<std::uint64_t> all;
  all.reserve(clients * ops);
  for (const Session& s : bench.sessions) {
    all.insert(all.end(), s.lat_us.begin(), s.lat_us.end());
  }
  std::sort(all.begin(), all.end());
  out->event_loops = bench.client->NumEventLoops();
  out->elapsed_sec = elapsed;
  out->throughput = static_cast<double>(clients * ops) / elapsed;
  out->p50 = Percentile(all, 0.50);
  out->p99 = Percentile(all, 0.99);
  out->p999 = Percentile(all, 0.999);
  out->max = all.back();
  std::printf(
      "  %zu loops: %.0f ops/sec  p50 %lluus  p99 %lluus  p999 %lluus  "
      "max %lluus\n",
      out->event_loops, out->throughput,
      static_cast<unsigned long long>(out->p50),
      static_cast<unsigned long long>(out->p99),
      static_cast<unsigned long long>(out->p999),
      static_cast<unsigned long long>(out->max));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t clients = 10000;
  std::size_t ops = 20;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      clients = 1000;
      ops = 5;
    } else if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc) {
      clients = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--ops") == 0 && i + 1 < argc) {
      ops = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--clients N] [--ops N]\n", argv[0]);
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

  std::vector<RunResult> sweep;
  for (std::size_t loops : kLoopSweep) {
    RunResult r;
    if (!RunOne(endpoints, clients, ops, loops, &r)) return 1;
    sweep.push_back(r);
  }
  const RunResult& ref = sweep.front();  // 1-loop reference shape

  std::FILE* f = std::fopen("BENCH_async.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"workload\": \"closed-loop write/read ping-pong, one "
                 "outstanding op per session\",\n"
                 "  \"clients\": %zu,\n"
                 "  \"ops_per_client\": %zu,\n"
                 "  \"disks\": %u,\n"
                 "  \"event_loops\": %zu,\n"
                 "  \"payload_bytes\": %zu,\n"
                 "  \"elapsed_sec\": %.3f,\n"
                 "  \"throughput_ops_per_sec\": %.1f,\n"
                 "  \"p50_us\": %llu,\n"
                 "  \"p99_us\": %llu,\n"
                 "  \"p999_us\": %llu,\n"
                 "  \"max_us\": %llu,\n"
                 "  \"sweep\": [",
                 clients, ops, kDisks, ref.event_loops, kPayloadBytes,
                 ref.elapsed_sec, ref.throughput,
                 static_cast<unsigned long long>(ref.p50),
                 static_cast<unsigned long long>(ref.p99),
                 static_cast<unsigned long long>(ref.p999),
                 static_cast<unsigned long long>(ref.max));
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const RunResult& r = sweep[i];
      std::fprintf(f,
                   "%s\n    {\"event_loops\": %zu, \"elapsed_sec\": %.3f, "
                   "\"throughput_ops_per_sec\": %.1f, \"p50_us\": %llu, "
                   "\"p99_us\": %llu, \"p999_us\": %llu, \"max_us\": %llu}",
                   i == 0 ? "" : ",", r.event_loops, r.elapsed_sec,
                   r.throughput, static_cast<unsigned long long>(r.p50),
                   static_cast<unsigned long long>(r.p99),
                   static_cast<unsigned long long>(r.p999),
                   static_cast<unsigned long long>(r.max));
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
  }
  std::printf("  artifact: BENCH_async.json\n");
  return 0;
}
