// Microbenchmarks for the TCP NAD path: raw block round-trips, emulated
// registers over real sockets, Disk Paxos decision latency, and the
// quorum-phase rate (writes the BENCH_nad_batch.json artifact after the
// google-benchmark run).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <map>

#include "common/sync.h"
#include "apps/disk_paxos.h"
#include "core/config.h"
#include "core/register_set.h"
#include "core/swsr_atomic.h"
#include "nad/client.h"
#include "nad/server.h"
#include "sim/sim_farm.h"

namespace {

using namespace nadreg;
using core::FarmConfig;

struct Cluster {
  std::vector<std::unique_ptr<nad::NadServer>> servers;
  std::unique_ptr<nad::NadClient> client;
  FarmConfig cfg{1};

  explicit Cluster(std::uint32_t t = 1) : cfg{t} {
    std::map<DiskId, nad::Endpoint> endpoints;
    for (DiskId d = 0; d < cfg.num_disks(); ++d) {
      auto server = nad::NadServer::Start({});
      endpoints[d] = nad::Endpoint{"127.0.0.1", (*server)->port()};
      servers.push_back(std::move(*server));
    }
    client = std::move(*nad::NadClient::Connect(endpoints));
  }
};

// The ISSUE/EXPERIMENTS workload: a quorum phase fanning out to 8
// registers on each of the 2t+1 disks, write phase + read phase — the
// shape of every emulation round in the paper.
constexpr BlockId kRegsPerDisk = 8;

core::RegisterSet MakeQuorumSet(Cluster& cluster) {
  std::vector<RegisterId> regs;
  for (DiskId d = 0; d < cluster.cfg.num_disks(); ++d) {
    for (BlockId b = 0; b < kRegsPerDisk; ++b) regs.push_back(RegisterId{d, b});
  }
  return core::RegisterSet(*cluster.client, 1, regs);
}

void RunQuorumPhases(core::RegisterSet& set, std::size_t phases) {
  for (std::size_t i = 0; i < phases; ++i) {
    auto w = set.WriteAll("quorum-payload");
    set.Await(w, set.size());
    auto r = set.ReadAll();
    set.Await(r, set.size());
  }
}

void BM_TcpWriteRoundtrip(benchmark::State& state) {
  Cluster cluster;
  Mutex mu;
  CondVar cv;
  bool done = false;
  for (auto _ : state) {
    done = false;
    cluster.client->IssueWrite(1, RegisterId{0, 0}, "payload", [&] {
      MutexLock lock(mu);
      done = true;
      cv.NotifyOne();
    });
    MutexLock lock(mu);
    cv.Wait(mu, [&] { return done; });
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TcpWriteRoundtrip);

void BM_TcpReadRoundtrip(benchmark::State& state) {
  Cluster cluster;
  Mutex mu;
  CondVar cv;
  bool done = false;
  for (auto _ : state) {
    done = false;
    cluster.client->IssueRead(1, RegisterId{0, 0}, [&](Value) {
      MutexLock lock(mu);
      done = true;
      cv.NotifyOne();
    });
    MutexLock lock(mu);
    cv.Wait(mu, [&] { return done; });
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TcpReadRoundtrip);

void BM_SwsrWriteOverTcp(benchmark::State& state) {
  Cluster cluster;
  core::SwsrAtomicWriter writer(*cluster.client, cluster.cfg,
                                cluster.cfg.Spread(0), 1);
  for (auto _ : state) writer.Write("payload");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SwsrWriteOverTcp);

void BM_SwsrReadOverTcp(benchmark::State& state) {
  Cluster cluster;
  core::SwsrAtomicWriter writer(*cluster.client, cluster.cfg,
                                cluster.cfg.Spread(0), 1);
  core::SwsrAtomicReader reader(*cluster.client, cluster.cfg,
                                cluster.cfg.Spread(0), 2);
  writer.Write("payload");
  for (auto _ : state) benchmark::DoNotOptimize(reader.Read());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SwsrReadOverTcp);

void BM_DiskPaxosDecisionSim(benchmark::State& state) {
  // Uncontended Disk Paxos decision on the simulated farm (zero delay).
  FarmConfig cfg{1};
  sim::SimFarm::Options o;
  o.max_delay_us = 0;
  sim::SimFarm farm(o);
  std::uint32_t object = 1;
  for (auto _ : state) {
    apps::DiskPaxos paxos(farm, cfg, object++, /*n=*/3, /*pid=*/0);
    benchmark::DoNotOptimize(paxos.TryPropose("v"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DiskPaxosDecisionSim)->Iterations(512);

void BM_DiskPaxosDecisionTcp(benchmark::State& state) {
  Cluster cluster;
  std::uint32_t object = 1;
  for (auto _ : state) {
    apps::DiskPaxos paxos(*cluster.client, cluster.cfg, object++, /*n=*/3,
                          /*pid=*/0);
    benchmark::DoNotOptimize(paxos.TryPropose("v"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DiskPaxosDecisionTcp)->Iterations(128);

void BM_QuorumPhase(benchmark::State& state) {
  Cluster cluster;
  core::RegisterSet set = MakeQuorumSet(cluster);
  for (auto _ : state) RunQuorumPhases(set, 1);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QuorumPhase)->Iterations(256);

// Chrono-timed quorum-phase rate, written as an artifact so
// EXPERIMENTS.md can point at a reproducible number. Run after the
// google-benchmark suite from main().
double MeasurePhasesPerSec(std::size_t phases) {
  Cluster cluster;
  core::RegisterSet set = MakeQuorumSet(cluster);
  RunQuorumPhases(set, 8);  // warm-up: TCP slow start, allocator, caches
  const auto t0 = std::chrono::steady_clock::now();
  RunQuorumPhases(set, phases);
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  return static_cast<double>(phases) / secs;
}

// The two arms BENCH_nad_batch.json recorded while the wire still had a
// batch frame: one frame per disk per phase (batched) against one frame
// AND one server sendmsg per register (unbatched). Today's single path
// sends per-op frames with one writev per disk and answers each burst
// with one sendmsg; the artifact keeps the old arms as its baseline.
constexpr double kBaselineBatched = 8598.4;
constexpr double kBaselineUnbatched = 4841.3;

void WriteBatchArtifact() {
  constexpr std::size_t kPhases = 300;
  std::array<double, 3> runs{};
  for (double& r : runs) r = MeasurePhasesPerSec(kPhases);
  std::array<double, 3> sorted = runs;
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted[1];
  std::FILE* f = std::fopen("BENCH_nad_batch.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"workload\": \"quorum write+read phase, %u regs/disk x "
                 "%u disks, awaited fully\",\n"
                 "  \"phases\": %zu,\n"
                 "  \"baseline\": {\n"
                 "    \"wire\": \"batch frame per disk vs per-op frames "
                 "answered one sendmsg each\",\n"
                 "    \"batched_phases_per_sec\": %.1f,\n"
                 "    \"unbatched_phases_per_sec\": %.1f\n"
                 "  },\n"
                 "  \"wire\": \"per-op frames, one writev per disk, one "
                 "sendmsg per server burst\",\n"
                 "  \"runs\": [%.1f, %.1f, %.1f],\n"
                 "  \"phases_per_sec\": %.1f,\n"
                 "  \"vs_baseline_batched\": %.2f,\n"
                 "  \"vs_baseline_unbatched\": %.2f\n"
                 "}\n",
                 static_cast<unsigned>(kRegsPerDisk), 3u, kPhases,
                 kBaselineBatched, kBaselineUnbatched, runs[0], runs[1],
                 runs[2], median, median / kBaselineBatched,
                 median / kBaselineUnbatched);
    std::fclose(f);
  }
  std::printf(
      "\nnad quorum phase (8 regs/disk x 3 disks, full quorum phases)\n"
      "  runs:     %8.1f %8.1f %8.1f phases/sec\n"
      "  median:   %8.1f phases/sec (%.2fx the committed batched arm, "
      "%.2fx the unbatched arm)\n",
      runs[0], runs[1], runs[2], median, median / kBaselineBatched,
      median / kBaselineUnbatched);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  WriteBatchArtifact();
  return 0;
}
